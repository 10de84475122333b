"""Attention kernels against hand arithmetic and brute-force references."""

import math
import tracemalloc

import numpy as np
import pytest

from rope_kit.attention import (
    AttentionSpec,
    causal_mask,
    feature_map_pair,
    linear_attention,
    linear_attention_parts,
    rope_linear_attention,
    rope_linear_attention_parts,
    rope_weight_sign_stats,
    shaw_score_bias,
    similarity_attention,
    softmax_attention,
)
from rope_kit.attention import _linear_core
from rope_kit.baselines import ShawRelative
from rope_kit.errors import ConfigurationError, DimensionError, NumericError
from rope_kit.numerics import Parameter, Rng, Tensor, grad_check, tensor_sum
from rope_kit.rotary import RotaryEncoder, apply_rotary


def elu1(x):
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def softmax_vec(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def rand_qkv(rng, seq, dim):
    return (Tensor(rng.normal_array((seq, dim))) for _ in range(3))


class TestAttentionSpec:
    def test_rope_needs_even_head_dim(self):
        with pytest.raises(ConfigurationError):
            AttentionSpec(heads=1, head_dim=3, pos_encoding="rope")

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            AttentionSpec(heads=1, head_dim=4, variant="quadratic")

    def test_unknown_encoding(self):
        with pytest.raises(ConfigurationError):
            AttentionSpec(heads=1, head_dim=4, pos_encoding="alibi")


class TestSoftmaxAttention:
    def test_single_token_returns_value(self):
        rng = Rng(1)
        q, k, v = rand_qkv(rng, 1, 4)
        out = softmax_attention(q, k, v, AttentionSpec(1, 4))
        np.testing.assert_allclose(out.output.data, v.data, atol=1e-15)

    def test_equal_scores_average_values(self):
        v = Rng(2).normal_array((3, 4))
        zeros = Tensor(np.zeros((3, 4)))
        out = softmax_attention(zeros, zeros, Tensor(v), AttentionSpec(1, 4))
        np.testing.assert_allclose(out.output.data, np.tile(v.mean(0), (3, 1)), atol=1e-12)

    def test_hand_weights_one_third_two_thirds(self):
        # q1.k1 = 0 and q1.k2 = 2 ln 2, so after /sqrt(4) the weights are 1:2
        q = Tensor([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        k = Tensor([[0.0, 1.0, 0.0, 0.0], [2.0 * math.log(2.0), 0.0, 0.0, 0.0]])
        v = Tensor(Rng(3).normal_array((2, 4)))
        out = softmax_attention(q, k, v, AttentionSpec(1, 4))
        np.testing.assert_allclose(out.weights.data[0], [1 / 3, 2 / 3], atol=1e-15)
        np.testing.assert_allclose(
            out.output.data[0], (v.data[0] + 2.0 * v.data[1]) / 3.0, atol=1e-14
        )

    def test_weights_rows_sum_to_one(self):
        rng = Rng(4)
        q, k, v = rand_qkv(rng, 6, 8)
        out = softmax_attention(q, k, v, AttentionSpec(1, 8, causal=True))
        np.testing.assert_allclose(out.weights.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_causal_mask_zeroes_future(self):
        rng = Rng(5)
        q, k, v = rand_qkv(rng, 5, 4)
        out = softmax_attention(q, k, v, AttentionSpec(1, 4, causal=True))
        upper = out.weights.data[~causal_mask(5)]
        np.testing.assert_array_equal(upper, 0.0)

    def test_position_agnostic_without_encoding(self):
        # permuting the tokens permutes the outputs identically
        rng = Rng(6)
        q, k, v = (rng.normal_array((5, 4)) for _ in range(3))
        perm = np.array([3, 0, 4, 2, 1])
        spec = AttentionSpec(1, 4, causal=False)
        base = softmax_attention(Tensor(q), Tensor(k), Tensor(v), spec).output.data
        shuffled = softmax_attention(
            Tensor(q[perm]), Tensor(k[perm]), Tensor(v[perm]), spec
        ).output.data
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)

    def test_rope_shift_equivariance(self):
        enc = RotaryEncoder(64)
        rng = Rng(7)
        q, k, v = (rng.normal_array((6, 64)) for _ in range(3))
        spec = AttentionSpec(1, 64, pos_encoding="rope", causal=True)

        def run(shift):
            qr = np.stack([apply_rotary(enc, q[t], t + shift) for t in range(6)])
            kr = np.stack([apply_rotary(enc, k[t], t + shift) for t in range(6)])
            return softmax_attention(Tensor(qr), Tensor(kr), Tensor(v), spec).output.data

        np.testing.assert_allclose(run(0), run(311), atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            softmax_attention(
                Tensor(np.ones((3, 4))), Tensor(np.ones((4, 4))),
                Tensor(np.ones((3, 4))), AttentionSpec(1, 4),
            )

    def test_gradient(self):
        rng = Rng(8)
        params = [Parameter(n, rng.normal_array((4, 6))) for n in "qkv"]
        spec = AttentionSpec(1, 6, causal=True)

        def f():
            out = softmax_attention(*(p.tensor for p in params), spec)
            return tensor_sum(out.output * out.output)

        assert grad_check(f, params, Rng(9), samples=15) < 1e-6


class TestShawBias:
    def test_bias_matches_manual_loop(self):
        rng = Rng(10)
        rel = ShawRelative(-3, 3, 4, rng, scale=1.0)
        q = rng.normal_array((5, 4))
        bias = shaw_score_bias(Tensor(q), rel).data
        for m in range(5):
            for n in range(5):
                expected = q[m] @ rel.key_embeddings.data[rel.clip(m, n) - rel.r_min]
                assert abs(bias[m, n] - expected) < 1e-12

    def test_gradients_flow_to_embeddings(self):
        rng = Rng(11)
        rel = ShawRelative(-2, 2, 4, rng, scale=1.0)
        q = Parameter("q", rng.normal_array((4, 4)))
        v = Tensor(rng.normal_array((4, 4)))
        spec = AttentionSpec(1, 4, pos_encoding="shaw", causal=True)

        def f():
            out = softmax_attention(
                q.tensor, q.tensor, v, spec, score_bias=shaw_score_bias(q.tensor, rel)
            )
            return tensor_sum(out.output * out.output)

        err = grad_check(f, [q, rel.key_embeddings], Rng(12), samples=15)
        assert err < 1e-6

    def test_batched_heads_match_manual_loop(self):
        # seq 9 with clip radius 2: both clipped end buckets and every
        # interior bucket occur, and in rows near the ends some are absent.
        rng = Rng(40)
        rel = ShawRelative(-2, 2, 4, rng, scale=1.0)
        q = rng.normal_array((2, 2, 9, 4))
        bias = shaw_score_bias(Tensor(q), rel).data
        assert bias.shape == (2, 2, 9, 9)
        for b in range(2):
            for h in range(2):
                for m in range(9):
                    for n in range(9):
                        e = rel.key_embeddings.data[rel.clip(m, n) - rel.r_min]
                        assert abs(bias[b, h, m, n] - q[b, h, m] @ e) < 1e-12

    def test_batched_heads_gradient(self):
        rng = Rng(41)
        rel = ShawRelative(-2, 2, 4, rng, scale=1.0)
        q = Parameter("q", rng.normal_array((2, 2, 9, 4)))
        w = Tensor(rng.normal_array((2, 2, 9, 9)))

        def f():
            return tensor_sum(shaw_score_bias(q.tensor, rel) * w)

        err = grad_check(f, [q, rel.key_embeddings], Rng(42), samples=60)
        assert err < 1e-6

    def test_dim_mismatch_rejected(self):
        rel = ShawRelative(-2, 2, 4, Rng(43))
        with pytest.raises(DimensionError):
            shaw_score_bias(Tensor(np.zeros((3, 6))), rel)

    def test_memory_peak_at_long_context(self):
        # The bias must come from the 33 per-bucket scores, never from a
        # (seq, seq, dim) gather; that gather alone is 32 MB here.
        rng = Rng(44)
        rel = ShawRelative(-16, 16, 32, rng, dtype=np.float32)
        q = Parameter("q", rng.normal_array((1, 2, 512, 32)), dtype=np.float32)
        tracemalloc.start()
        try:
            tensor_sum(shaw_score_bias(q.tensor, rel)).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q.gradient.shape == (1, 2, 512, 32)
        assert peak < 16 * 2**20


class TestLinearAttention:
    def test_single_token_returns_value(self):
        rng = Rng(13)
        q, k, v = rand_qkv(rng, 1, 4)
        out = linear_attention(q, k, v, "elu")
        np.testing.assert_allclose(out.data, v.data, atol=1e-15)

    def test_identical_keys_average_values(self):
        rng = Rng(14)
        q = Tensor(rng.normal_array((4, 4)))
        k = Tensor(np.tile(rng.normal_array((4,)), (4, 1)))
        v = Tensor(rng.normal_array((4, 4)))
        out = linear_attention(q, k, v, "elu")
        np.testing.assert_allclose(out.data, np.tile(v.data.mean(0), (4, 1)), atol=1e-12)

    @pytest.mark.parametrize("feature_map,sim", [
        ("elu", lambda a, b: float(elu1(a) @ elu1(b))),
        ("softmax-exp", lambda a, b: float(softmax_vec(a) @ np.exp(b))),
    ])
    def test_regrouped_equals_direct(self, feature_map, sim):
        rng = Rng(15)
        for seq, dim in ((5, 4), (16, 8), (64, 64)):
            q, k, v = rand_qkv(rng, seq, dim)
            fast = linear_attention(q, k, v, feature_map)
            direct = similarity_attention(q.data, k.data, v.data, sim)
            assert np.abs(fast.data - direct.data).max() < 1e-10

    def test_causal_regrouped_equals_masked_direct(self):
        rng = Rng(16)
        seq = 12
        q, k, v = rand_qkv(rng, seq, 6)
        fast = linear_attention(q, k, v, "elu", causal=True).data
        scores = np.array([[float(elu1(q.data[m]) @ elu1(k.data[n])) for n in range(seq)]
                           for m in range(seq)])
        scores *= causal_mask(seq)
        direct = (scores / scores.sum(axis=1, keepdims=True)) @ v.data
        assert np.abs(fast - direct).max() < 1e-12

    def test_batched_leading_axes(self):
        rng = Rng(17)
        q, k, v = (Tensor(rng.normal_array((2, 3, 5, 4))) for _ in range(3))
        out = linear_attention(q, k, v, "elu", causal=True)
        for b in range(2):
            for h in range(3):
                single = linear_attention(
                    Tensor(q.data[b, h]), Tensor(k.data[b, h]), Tensor(v.data[b, h]),
                    "elu", causal=True,
                )
                np.testing.assert_allclose(out.data[b, h], single.data, atol=1e-14)

    def test_zero_denominator_rejected(self):
        zero = Tensor(np.zeros((2, 4)))
        v = Tensor(np.ones((2, 4)))
        with pytest.raises(NumericError):
            _linear_core(zero, zero, zero, zero, v, causal=False)

    def test_unknown_feature_map(self):
        with pytest.raises(ConfigurationError):
            feature_map_pair("taylor")

    def test_gradient(self):
        rng = Rng(18)
        for feature_map in ("elu", "softmax-exp"):
            params = [Parameter(n, rng.normal_array((5, 4))) for n in "qkv"]

            def f():
                out = linear_attention(*(p.tensor for p in params), feature_map, causal=True)
                return tensor_sum(out * out)

            assert grad_check(f, params, Rng(19), samples=12) < 1e-6


class TestRopeLinearAttention:
    def test_positions_zero_match_plain(self):
        rng = Rng(20)
        enc = RotaryEncoder(4)
        q, k, v = rand_qkv(rng, 5, 4)
        plain = linear_attention(q, k, v, "elu")
        roped = rope_linear_attention(q, k, v, enc, "elu", positions=np.zeros(5, dtype=int))
        np.testing.assert_array_equal(roped.data, plain.data)

    def test_single_token_any_position(self):
        rng = Rng(21)
        enc = RotaryEncoder(4)
        q, k, v = rand_qkv(rng, 1, 4)
        out = rope_linear_attention(q, k, v, enc, "elu", positions=np.array([41]))
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_denominator_identical_bitwise(self):
        rng = Rng(22)
        enc = RotaryEncoder(8)
        for causal in (False, True):
            q, k, v = rand_qkv(rng, 5, 8)
            plain = linear_attention_parts(q, k, v, "elu", causal=causal)
            roped = rope_linear_attention_parts(q, k, v, enc, "elu", causal=causal)
            assert np.array_equal(roped.denominator, plain.denominator)

    def test_shift_invariant_weights(self):
        # rotations enter scores only through relative offsets
        rng = Rng(23)
        enc = RotaryEncoder(8)
        q, k, v = rand_qkv(rng, 6, 8)
        base = rope_linear_attention(q, k, v, enc, "elu", positions=np.arange(6))
        moved = rope_linear_attention(q, k, v, enc, "elu", positions=np.arange(6) + 129)
        np.testing.assert_allclose(base.data, moved.data, atol=1e-9)

    def test_sign_stats_reported(self):
        rng = Rng(24)
        stats = rope_weight_sign_stats(
            rng.normal_array((16, 8)), rng.normal_array((16, 8)), RotaryEncoder(8), "elu"
        )
        assert stats["weights"] == 256
        assert 0.0 <= stats["negative_fraction"] <= 1.0
        if stats["negative_fraction"] > 0:
            assert stats["min_weight"] < 0

    def test_gradient(self):
        rng = Rng(25)
        enc = RotaryEncoder(4)
        params = [Parameter(n, rng.normal_array((5, 4))) for n in "qkv"]

        def f():
            out = rope_linear_attention(*(p.tensor for p in params), enc, "elu", causal=True)
            return tensor_sum(out * out)

        assert grad_check(f, params, Rng(26), samples=12) < 1e-6


class TestSimilarityAttention:
    def test_constant_similarity_averages(self):
        rng = Rng(27)
        q, k, v = (rng.normal_array((4, 3)) for _ in range(3))
        out = similarity_attention(q, k, v, lambda a, b: 1.0)
        np.testing.assert_allclose(out.data, np.tile(v.mean(0), (4, 1)), atol=1e-14)

    def test_exp_similarity_matches_softmax_attention(self):
        rng = Rng(28)
        q, k, v = (rng.normal_array((6, 4)) for _ in range(3))
        direct = similarity_attention(
            q, k, v, lambda a, b: math.exp(float(a @ b) / 2.0)
        )
        kernel = softmax_attention(Tensor(q), Tensor(k), Tensor(v), AttentionSpec(1, 4))
        np.testing.assert_allclose(direct.data, kernel.output.data, atol=1e-12)

    def test_delta_kernel_selects_matching_value(self):
        rng = Rng(29)
        q = np.eye(4)
        k = np.eye(4)
        v = rng.normal_array((4, 4))
        out = similarity_attention(q, k, v, lambda a, b: float(np.allclose(a, b)))
        np.testing.assert_allclose(out.data, v, atol=1e-15)

    def test_negative_similarity_rejected(self):
        ones = np.ones((2, 2))
        with pytest.raises(NumericError):
            similarity_attention(ones, ones, ones, lambda a, b: -1.0)

    def test_zero_row_rejected(self):
        ones = np.ones((2, 2))
        with pytest.raises(NumericError):
            similarity_attention(ones, ones, ones, lambda a, b: 0.0)
