"""Attention kernels against hand arithmetic and brute-force references."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rope_kit.attention import (
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
from rope_kit.attention import _CHUNK, _linear_core
from rope_kit.baselines import ShawRelative
from rope_kit.errors import ConfigurationError, DimensionError, NumericError
from rope_kit.numerics import (
    Parameter, Rng, Tensor, grad_check, matmul, reshape, softmax_rows, take_rows, tensor_sum,
    transpose,
)
from rope_kit.rotary import RotaryEncoder, apply_rotary, dense_rotation_matrix


def elu1(x):
    return np.where(x > 0, x + 1.0, np.exp(np.minimum(x, 0.0)))


def softmax_vec(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def rand_qkv(rng, seq, dim):
    return (Tensor(rng.normal_array((seq, dim))) for _ in range(3))


# Block boundaries of softmax attention's query rows and of the causal
# linear numerator's chunks: one position, one short of a block, exactly
# one block, one past it, and a ragged third block.
CHUNK_SEQS = (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3)


def dense_relative_bias(relative):
    """The (..., seq, seq) bias of a (..., seq, W) relative band, gathered
    with tape ops: entry (m, n) is relative[..., m, m - n] for
    0 <= m - n < W and 0 elsewhere, softmax_attention's arithmetic, entry
    for entry.
    """
    shape = relative.data.shape
    seq, width = shape[-2:]
    offsets = np.subtract.outer(np.arange(seq), np.arange(seq))
    index = np.clip(offsets, 0, width - 1)
    rows = np.arange(relative.data.size // width).reshape(shape[:-1] + (1,)) * width
    flat = reshape(relative, (relative.data.size, 1))
    bias = reshape(take_rows(flat, rows + index), shape[:-1] + (seq,))
    return bias * ((offsets >= 0) & (offsets < width)).astype(relative.data.dtype)


def shaw_reference_bias(q, table, r_min):
    """(..., seq, seq) Shaw bias q_m . e[clip(m - n, r_min, r_max)] from a
    (seq, seq, d) gather of a table with one row per offset r_min..r_max."""
    seq, dim = q.data.shape[-2:]
    offsets = np.subtract.outer(np.arange(seq), np.arange(seq))
    index = np.clip(offsets, r_min, r_min + table.data.shape[0] - 1) - r_min
    embeddings = take_rows(table, index)
    rows = reshape(q, q.data.shape[:-1] + (1, dim))
    return reshape(matmul(rows, transpose(embeddings)), q.data.shape[:-1] + (seq,))


def attention_weights(q, k, causal=False, relative=None):
    """softmax_attention's probabilities P, read as its output for v = I:
    P @ I is P exactly, the zeros above a causal diagonal included."""
    seq = q.data.shape[-2]
    eye = Tensor(np.broadcast_to(np.eye(seq), q.data.shape[:-1] + (seq,)))
    return softmax_attention(q, k, eye, causal, relative).data


# A relative bias needs causal=True: (with_bias, causal) of the kernel cases.
KERNEL_CASES = pytest.mark.parametrize(
    "with_bias, causal", [(False, False), (False, True), (True, True)],
    ids=["plain-full", "plain-causal", "bias-causal"],
)


def composed_attention(q, k, v, causal, bias=None):
    """The chain of tape ops that softmax_attention fuses."""
    seq, dim = q.data.shape[-2:]
    scores = matmul(q, transpose(k))
    if bias is not None:
        scores = scores + bias
    scores = scores * (1.0 / np.sqrt(dim))
    weights = softmax_rows(scores, mask=causal_mask(seq) if causal else None)
    return matmul(weights, v)


class TestSoftmaxAttention:
    def test_single_token_returns_value(self):
        rng = Rng(1)
        q, k, v = rand_qkv(rng, 1, 4)
        out = softmax_attention(q, k, v)
        np.testing.assert_allclose(out.data, v.data, atol=1e-15)

    def test_equal_scores_average_values(self):
        v = Rng(2).normal_array((3, 4))
        zeros = Tensor(np.zeros((3, 4)))
        out = softmax_attention(zeros, zeros, Tensor(v))
        np.testing.assert_allclose(out.data, np.tile(v.mean(0), (3, 1)), atol=1e-12)

    def test_hand_weights_one_third_two_thirds(self):
        # q1.k1 = 0 and q1.k2 = 2 ln 2, so after /sqrt(4) the weights are 1:2
        q = Tensor([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        k = Tensor([[0.0, 1.0, 0.0, 0.0], [2.0 * math.log(2.0), 0.0, 0.0, 0.0]])
        v = Tensor(Rng(3).normal_array((2, 4)))
        out = softmax_attention(q, k, v)
        np.testing.assert_allclose(attention_weights(q, k)[0], [1 / 3, 2 / 3], atol=1e-15)
        np.testing.assert_allclose(
            out.data[0], (v.data[0] + 2.0 * v.data[1]) / 3.0, atol=1e-14
        )

    def test_weights_rows_sum_to_one(self):
        rng = Rng(4)
        q, k, _ = rand_qkv(rng, 6, 8)
        weights = attention_weights(q, k, causal=True)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)

    def test_causal_mask_zeroes_future(self):
        rng = Rng(5)
        q, k, _ = rand_qkv(rng, 5, 4)
        upper = attention_weights(q, k, causal=True)[~causal_mask(5)]
        np.testing.assert_array_equal(upper, 0.0)

    def test_position_agnostic_without_encoding(self):
        # permuting the tokens permutes the outputs identically
        rng = Rng(6)
        q, k, v = (rng.normal_array((5, 4)) for _ in range(3))
        perm = np.array([3, 0, 4, 2, 1])
        base = softmax_attention(Tensor(q), Tensor(k), Tensor(v)).data
        shuffled = softmax_attention(
            Tensor(q[perm]), Tensor(k[perm]), Tensor(v[perm])
        ).data
        np.testing.assert_allclose(shuffled, base[perm], atol=1e-12)

    def test_rope_shift_equivariance(self):
        enc = RotaryEncoder(64)
        rng = Rng(7)
        q, k, v = (rng.normal_array((6, 64)) for _ in range(3))
        def run(shift):
            qr = np.stack([apply_rotary(enc, q[t], t + shift) for t in range(6)])
            kr = np.stack([apply_rotary(enc, k[t], t + shift) for t in range(6)])
            return softmax_attention(Tensor(qr), Tensor(kr), Tensor(v), causal=True).data

        np.testing.assert_allclose(run(0), run(311), atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            softmax_attention(
                Tensor(np.ones((3, 4))), Tensor(np.ones((4, 4))),
                Tensor(np.ones((3, 4))),
            )

    def test_gradient(self):
        rng = Rng(8)
        params = [Parameter(n, rng.normal_array((4, 6))) for n in "qkv"]

        def f():
            out = softmax_attention(*params, causal=True)
            return tensor_sum(out * out)

        assert grad_check(f, params, Rng(9), samples=15) < 1e-6

    @pytest.mark.parametrize("causal", [True], ids=["causal"])
    @pytest.mark.parametrize("target", ["q", "k", "v", "bias"])
    def test_gradient_with_bias(self, target, causal):
        # T = 67 rows in two heads, with a relative band over offsets 0..15.
        rng = Rng(90)
        params = {n: Parameter(n, rng.normal_array((2, 67, 4))) for n in "qkv"}
        params["bias"] = Parameter("bias", rng.normal_array((2, 67, 16)))

        def f():
            q, k, v, bias = (params[n] for n in ("q", "k", "v", "bias"))
            out = softmax_attention(q, k, v, causal=causal, relative=bias)
            return tensor_sum(out * out)

        assert grad_check(f, [params[target]], Rng(91), samples=12) < 1e-6

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @KERNEL_CASES
    def test_matches_composed_tape_ops_bit_for_bit(self, with_bias, causal, dtype):
        # The fused op is the old chain of six tape ops, reordered in place.
        # The composed chain adds the dense form of a relative band over
        # offsets 0..5. The band's gradient is held to 16 ulps of its
        # largest entry.
        rng = Rng(93)
        arrays = [rng.normal_array((2, 2, 19, 8)) for _ in range(3)]
        arrays.append(rng.normal_array((2, 2, 19, 6)))

        def run(fused):
            params = [Parameter(n, a, dtype=dtype) for n, a in zip(("q", "k", "v", "bias"),
                                                                  arrays[:3 + with_bias])]
            q, k, v = params[:3]
            if fused:
                relative = params[3] if with_bias else None
                out = softmax_attention(q, k, v, causal=causal, relative=relative)
            else:
                bias = dense_relative_bias(params[3]) if with_bias else None
                out = composed_attention(q, k, v, causal, bias)
            tensor_sum(out * out).backward()
            return [out.data] + [p.gradient for p in params]

        fused, composed = run(True), run(False)
        for a, b in zip(fused, composed):
            assert a.dtype == b.dtype
        for a, b in zip(fused[:4], composed[:4]):
            assert np.array_equal(a, b)
        if with_bias:
            ulps = 16 * np.finfo(dtype).eps
            assert np.abs(fused[4] - composed[4]).max() <= ulps * np.abs(composed[4]).max()

    @pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
    def test_overflowing_scores_raise_without_warning(self, with_bias):
        # q.k overflows in the product itself, or only once the bias is
        # added: offset 0's band score on the diagonal.
        size = 5e153 if with_bias else 1e200
        q = Tensor(np.full((3, 4), size))
        relative = Tensor(np.full((3, 1), 1.7e308)) if with_bias else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="softmax_attention"):
                softmax_attention(q, q, Tensor(np.ones((3, 4))), causal=True, relative=relative)

    def test_bias_that_does_not_broadcast(self):
        # A relative band is q's shape but for W >= 1 in the last axis.
        q = Tensor(np.ones((3, 4)))
        for shape in [(2, 3, 3), (1, 3, 3), (4, 3), (3,), (3, 0)]:
            with pytest.raises(DimensionError, match="relative band"):
                softmax_attention(q, q, q, relative=Tensor(np.ones(shape)))

    def test_relative_bias_needs_causal(self):
        # Raised before any scoring: q.k would overflow.
        q = Tensor(np.full((3, 4), 1e200))
        relative = Tensor(np.ones((3, 5)))
        with pytest.raises(ConfigurationError, match="causal"):
            softmax_attention(q, q, q, relative=relative)

    @pytest.mark.parametrize("with_bias", [False, True], ids=["plain", "bias"])
    def test_memory_peak_at_long_context(self, with_bias):
        # A (seq, seq) array is 2 MB here. The tape keeps only the causal
        # P blocks (56% of one); a relative band over offsets 0..15 adds a
        # (seq, 16) array and builds no (seq, seq) one.
        rng = Rng(92)
        params = [Parameter(n, rng.normal_array((1, 2, 512, 32)), dtype=np.float32)
                  for n in "qkv"]
        relative = None
        if with_bias:
            relative = Parameter("bias", rng.normal_array((1, 2, 512, 16)),
                                 dtype=np.float32)
        tracemalloc.start()
        try:
            out = softmax_attention(*params, causal=True, relative=relative)
            tensor_sum(out).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params[0].gradient.shape == (1, 2, 512, 32)
        assert peak < 4 * 2**20


class TestQueryBlocks:
    """softmax_attention scores its queries in blocks of _CHUNK rows."""

    @pytest.mark.parametrize("seq", CHUNK_SEQS)
    @KERNEL_CASES
    def test_matches_composed_tape_ops(self, with_bias, causal, seq):
        # One block is the unblocked op, bit for bit; more blocks only
        # regroup sums. Two heads; the composed chain adds the dense form of
        # a relative band over offsets 0..15, and the band's gradient is
        # held to the multi-block tolerance.
        rng = Rng(100 + seq)
        arrays = [rng.normal_array((2, seq, 8)) for _ in range(3)]
        if with_bias:
            arrays.append(rng.normal_array((2, seq, 16)))

        def run(fused):
            params = [Parameter(n, a) for n, a in zip(("q", "k", "v", "bias"), arrays)]
            q, k, v = params[:3]
            if fused:
                relative = params[3] if with_bias else None
                out = softmax_attention(q, k, v, causal=causal, relative=relative)
            else:
                bias = dense_relative_bias(params[3]) if with_bias else None
                out = composed_attention(q, k, v, causal, bias)
            tensor_sum(out * out).backward()
            return [out.data] + [p.gradient for p in params]

        for i, (fused, composed) in enumerate(zip(run(True), run(False))):
            if seq <= _CHUNK and i < 4:
                assert np.array_equal(fused, composed)
            else:
                assert np.abs(fused - composed).max() <= 1e-12 * np.abs(composed).max()

    @pytest.mark.parametrize("causal", [True], ids=["causal"])
    @pytest.mark.parametrize("target", ["q", "k", "v", "bias"])
    def test_gradient_across_blocks(self, target, causal):
        seq = 2 * _CHUNK + 3
        rng = Rng(110)
        params = {n: Parameter(n, rng.normal_array((2, seq, 4))) for n in "qkv"}
        params["bias"] = Parameter("bias", rng.normal_array((2, seq, 16)))

        def f():
            q, k, v, bias = (params[n] for n in ("q", "k", "v", "bias"))
            out = softmax_attention(q, k, v, causal=causal, relative=bias)
            return tensor_sum(out * out)

        assert grad_check(f, [params[target]], Rng(111), samples=24) < 1e-6

    def test_weights_across_blocks(self):
        seq = 2 * _CHUNK + 3
        rng = Rng(112)
        q, k = (Tensor(rng.normal_array((2, seq, 8))) for _ in range(2))
        weights = attention_weights(q, k, causal=True)
        assert weights.shape == (2, seq, seq)
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-12)
        assert np.all(weights[:, ~causal_mask(seq)] == 0.0)
        scores = q.data @ k.data.swapaxes(-1, -2) / np.sqrt(8)
        expected = softmax_rows(Tensor(scores), mask=causal_mask(seq)).data
        np.testing.assert_allclose(weights, expected, rtol=0, atol=1e-15)

    def test_overflow_in_a_later_block_raises(self):
        # Only query row _CHUNK + 5, in the second block, overflows its scores.
        seq = 2 * _CHUNK + 3
        q = np.ones((seq, 4))
        q[_CHUNK + 5] = 1e200
        k = np.full((seq, 4), 1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="softmax_attention"):
                softmax_attention(Tensor(q), Tensor(k), Tensor(np.ones((seq, 4))), causal=True)

    def test_bucket_score_overflow_in_a_later_block_raises(self):
        # Only query row _CHUNK + 5 has a score that overflows, and only
        # once its band score is added: q.q on the diagonal is 1.69e308.
        seq = 2 * _CHUNK + 3
        q = np.ones((seq, 4))
        q[_CHUNK + 5] = 6.5e153
        band = np.zeros((seq, 16))
        band[_CHUNK + 5, 0] = 1.7e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="softmax_attention scores"):
                softmax_attention(Tensor(q), Tensor(q), Tensor(q), causal=True,
                                  relative=Tensor(band))

    def test_masked_scores_are_never_computed(self):
        # q_0 . k_100 overflows, but key 100 comes after query 0: a causal
        # call never scores it, while a full one does and raises.
        seq = 2 * _CHUNK + 3
        q, k = np.ones((seq, 4)), np.ones((seq, 4))
        q[0] = k[100] = 1e200
        v = Rng(113).normal_array((seq, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = softmax_attention(Tensor(q), Tensor(k), Tensor(v), causal=True).data
            with pytest.raises(NumericError, match="softmax_attention"):
                softmax_attention(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_array_equal(out[100:], np.repeat(v[100:101], seq - 100, axis=0))


def test_causal_mask_is_one_read_only_memo():
    mask = causal_mask(7)
    assert causal_mask(7) is mask
    assert not mask.flags.writeable
    np.testing.assert_array_equal(mask, np.tril(np.ones((7, 7), dtype=bool)))
    assert causal_mask(3).shape == (3, 3)


class TestShawBias:
    """Shaw et al. (2018)'s key term: the band q (e_j - e_radius) into softmax_attention."""

    @staticmethod
    def weights_without_keys(q, rel):
        # With k = 0 the scores are the bias alone, so the weights of row m
        # are the softmax of the bias / sqrt(d) the op added to keys n <= m.
        relative = shaw_score_bias(Tensor(q), rel)
        return attention_weights(Tensor(q), Tensor(np.zeros(q.shape)), True, relative)

    @staticmethod
    def causal_softmax(bias, seq):
        # Row m's weights over every key, from the biases of keys n <= m:
        # their softmax, then 0 for the seq - m - 1 later keys.
        return np.concatenate([softmax_vec(bias), np.zeros(seq - len(bias))])

    @staticmethod
    def textbook_bias(q_m, rel, m):
        # q_m . e[min(m - n, radius)] for the keys n <= m.
        table = rel.data
        return np.array([q_m @ table[min(m - n, len(table) - 1)] for n in range(m + 1)])

    def test_bias_matches_manual_loop(self):
        rng = Rng(10)
        rel = ShawRelative(3, 4, rng, scale=1.0)
        q = rng.normal_array((5, 4))
        weights = self.weights_without_keys(q, rel)
        for m in range(5):
            expected = self.causal_softmax(self.textbook_bias(q[m], rel, m) / 2.0, 5)
            for n in range(5):
                assert abs(weights[m, n] - expected[n]) < 1e-12

    def test_gradients_flow_to_embeddings(self):
        rng = Rng(11)
        rel = ShawRelative(2, 4, rng, scale=1.0)
        q = Parameter("q", rng.normal_array((4, 4)))
        v = Tensor(rng.normal_array((4, 4)))

        def f():
            relative = shaw_score_bias(q, rel)
            out = softmax_attention(q, q, v, causal=True, relative=relative)
            return tensor_sum(out * out)

        err = grad_check(f, [q, rel], Rng(12), samples=15)
        assert err < 1e-6

    def test_batched_heads_match_manual_loop(self):
        # seq 9 with clip radius 2: the clipped far row and every nearer
        # row occur, and in the first rows some are absent.
        rng = Rng(40)
        rel = ShawRelative(2, 4, rng, scale=1.0)
        q = rng.normal_array((2, 2, 9, 4))
        weights = self.weights_without_keys(q, rel)
        assert weights.shape == (2, 2, 9, 9)
        for b in range(2):
            for h in range(2):
                for m in range(9):
                    bias = self.textbook_bias(q[b, h, m], rel, m)
                    expected = self.causal_softmax(bias / 2.0, 9)
                    for n in range(9):
                        assert abs(weights[b, h, m, n] - expected[n]) < 1e-12

    def test_batched_heads_gradient(self):
        rng = Rng(41)
        rel = ShawRelative(2, 4, rng, scale=1.0)
        q = Parameter("q", rng.normal_array((2, 2, 9, 4)))
        w = Tensor(rng.normal_array((2, 2, 9, 2)))

        def f():
            return tensor_sum(shaw_score_bias(q, rel) * w)

        err = grad_check(f, [q, rel], Rng(42), samples=60)
        assert err < 1e-6

    def test_dim_mismatch_rejected(self):
        rel = ShawRelative(2, 4, Rng(43))
        with pytest.raises(DimensionError):
            shaw_score_bias(Tensor(np.zeros((3, 6))), rel)

    def test_memory_peak_at_long_context(self):
        # The 17 scores per query are all the op builds: never a
        # (seq, seq) bias (1 MB here) nor a (seq, seq, dim) gather (32 MB).
        rng = Rng(44)
        rel = ShawRelative(16, 32, rng, dtype=np.float32)
        q = Parameter("q", rng.normal_array((1, 2, 512, 32)), dtype=np.float32)
        tracemalloc.start()
        try:
            tensor_sum(shaw_score_bias(q, rel)).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert q.gradient.shape == (1, 2, 512, 32)
        assert peak < 1 * 2**20

    @pytest.mark.parametrize("clip", [(-16, 16), (-2, 2), (-1, 1), (-3, 100)],
                             ids=lambda c: f"{c[0]}..{c[1]}")
    @pytest.mark.parametrize("causal", [True], ids=["causal"])
    @pytest.mark.parametrize("seq", CHUNK_SEQS)
    def test_matches_dense_reference(self, seq, causal, clip):
        # The reference builds Shaw's bias from a (seq, seq, d) gather of a
        # table with one row per clipped offset r_min..radius and feeds it
        # to the composed chain. Its rows for negative offsets are random
        # and get exactly no gradient: a causal model never reads them. The
        # rest of the table is ShawRelative(radius)'s. With radius 100 the
        # band is wider than a query block and reaches back before key 0 in
        # the first two blocks.
        r_min, radius = clip
        rng = Rng(120 + seq)
        rel = ShawRelative(radius, 8, rng, scale=1.0)
        table = Parameter("table", np.concatenate([rng.normal_array((-r_min, 8)),
                                                   rel.data]))
        arrays = [rng.normal_array((2, seq, 8)) for _ in range(3)]

        def run(fused):
            params = [Parameter(n, a) for n, a in zip("qkv", arrays)]
            q, k, v = params
            if fused:
                out = softmax_attention(q, k, v, causal=causal, relative=shaw_score_bias(q, rel))
                embeddings = rel
            else:
                bias = shaw_reference_bias(q, table, r_min)
                out = composed_attention(q, k, v, causal, bias)
                embeddings = table
            tensor_sum(out * out).backward()
            return [out.data] + [p.gradient for p in params] + [embeddings.gradient]

        fused, reference = run(True), run(False)
        assert not reference[4][:-r_min].any()
        reference[4] = reference[4][-r_min:]
        for a, b in zip(fused, reference):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("causal", [True], ids=["causal"])
    @pytest.mark.parametrize("target", ["q", "k", "v", "embeddings"])
    def test_gradient_across_blocks(self, target, causal):
        seq = 2 * _CHUNK + 3
        rng = Rng(130)
        rel = ShawRelative(16, 4, rng, scale=1.0)
        params = {n: Parameter(n, rng.normal_array((2, seq, 4))) for n in "qkv"}
        params["embeddings"] = rel

        def f():
            q, k, v = (params[n] for n in "qkv")
            relative = shaw_score_bias(q, rel)
            out = softmax_attention(q, k, v, causal=causal, relative=relative)
            return tensor_sum(out * out)

        assert grad_check(f, [params[target]], Rng(131), samples=24) < 1e-6


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
        ("elu", lambda q_m, k: elu1(k) @ elu1(q_m)),
        ("softmax-exp", lambda q_m, k: np.exp(k) @ softmax_vec(q_m)),
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
                out = linear_attention(*params, feature_map, causal=True)
                return tensor_sum(out * out)

            assert grad_check(f, params, Rng(19), samples=12) < 1e-6


class TestRopeLinearAttention:
    def test_single_token_any_position(self):
        # one token at position 0 attends only to itself
        rng = Rng(21)
        enc = RotaryEncoder(4)
        q, k, v = rand_qkv(rng, 1, 4)
        out = rope_linear_attention(q, k, v, enc, "elu")
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_denominator_identical_bitwise(self):
        rng = Rng(22)
        enc = RotaryEncoder(8)
        for causal in (False, True):
            q, k, v = rand_qkv(rng, 5, 8)
            plain = linear_attention_parts(q, k, v, "elu", causal=causal)
            roped = rope_linear_attention_parts(q, k, v, enc, "elu", causal=causal)
            assert np.array_equal(roped.denominator, plain.denominator)

    def test_sign_stats_reported(self):
        rng = Rng(24)
        stats = rope_weight_sign_stats(
            rng.normal_array((16, 8)), rng.normal_array((16, 8)), RotaryEncoder(8)
        )
        assert stats["weights"] == 256
        assert 0.0 <= stats["negative_fraction"] <= 1.0
        if stats["negative_fraction"] > 0:
            assert stats["min_weight"] < 0

    def test_sign_stats_match_dense_rotation(self):
        rng = Rng(29)
        q, k = rng.normal_array((12, 8)), rng.normal_array((12, 8))
        enc = RotaryEncoder(8)
        stats = rope_weight_sign_stats(q, k, enc)
        rotations = [dense_rotation_matrix(enc, t) for t in range(12)]
        pq = np.stack([r @ elu1(row) for r, row in zip(rotations, q)])
        pk = np.stack([r @ elu1(row) for r, row in zip(rotations, k)])
        weights = pq @ pk.T
        assert stats["weights"] == weights.size
        np.testing.assert_allclose(stats["negative_fraction"], (weights < 0).mean())
        np.testing.assert_allclose(stats["min_weight"], weights.min())

    def test_gradient(self):
        rng = Rng(25)
        enc = RotaryEncoder(4)
        params = [Parameter(n, rng.normal_array((5, 4))) for n in "qkv"]

        def f():
            out = rope_linear_attention(*params, enc, "elu", causal=True)
            return tensor_sum(out * out)

        assert grad_check(f, params, Rng(26), samples=12) < 1e-6


def direct_feature_maps(feature_map, q, k):
    if feature_map == "elu":
        return elu1(q), elu1(k)
    e = np.exp(q - q.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True), np.exp(k)


def masked_direct(pq_num, pk_num, pq_den, pk_den, v):
    """Causal linear attention from the full masked (seq, seq) weights."""
    mask = causal_mask(pq_num.shape[0])
    num = ((pq_num @ pk_num.T) * mask) @ v
    den = ((pq_den @ pk_den.T) * mask).sum(axis=1)
    return num / den[:, None]


class TestChunkwiseCausal:
    @pytest.mark.parametrize("feature_map", ["elu", "softmax-exp"])
    @pytest.mark.parametrize("seq", CHUNK_SEQS)
    def test_plain_matches_masked_direct(self, feature_map, seq):
        rng = Rng(60 + seq)
        q, k, v = rand_qkv(rng, seq, 8)
        fast = linear_attention(q, k, v, feature_map, causal=True).data
        pq, pk = direct_feature_maps(feature_map, q.data, k.data)
        assert np.abs(fast - masked_direct(pq, pk, pq, pk, v.data)).max() < 1e-10

    @pytest.mark.parametrize("feature_map", ["elu", "softmax-exp"])
    @pytest.mark.parametrize("seq", CHUNK_SEQS)
    def test_rotary_matches_masked_direct(self, feature_map, seq):
        rng = Rng(70 + seq)
        q, k, v = rand_qkv(rng, seq, 8)
        enc = RotaryEncoder(8)
        roped = rope_linear_attention_parts(q, k, v, enc, feature_map, causal=True)
        plain = linear_attention_parts(q, k, v, feature_map, causal=True)
        assert np.array_equal(roped.denominator, plain.denominator)
        pq, pk = direct_feature_maps(feature_map, q.data, k.data)
        rot = dense_rotation_matrix(enc, np.arange(seq))
        pq_rot = np.einsum("tij,tj->ti", rot, pq)
        pk_rot = np.einsum("tij,tj->ti", rot, pk)
        direct = masked_direct(pq_rot, pk_rot, pq, pk, v.data)
        assert np.abs(roped.output.data - direct).max() < 1e-10

    @pytest.mark.parametrize("rotary", [False, True], ids=["plain", "rotary"])
    def test_gradient_across_chunks(self, rotary):
        rng = Rng(80)
        enc = RotaryEncoder(4)
        params = [Parameter(n, rng.normal_array((_CHUNK + 3, 4))) for n in "qkv"]

        def f():
            q, k, v = params
            if rotary:
                out = rope_linear_attention(q, k, v, enc, "elu", causal=True)
            else:
                out = linear_attention(q, k, v, "elu", causal=True)
            return tensor_sum(out * out)

        assert grad_check(f, params, Rng(81), samples=24) < 1e-6

    def test_memory_peak_at_long_context(self):
        # Chunked, the core holds (seq/64) d x d states; the (seq, d, d)
        # prefix sum of outer products it replaces is 4 MB per copy here.
        rng = Rng(82)
        params = [Parameter(n, rng.normal_array((1, 2, 512, 32)), dtype=np.float32)
                  for n in "qkv"]
        tracemalloc.start()
        try:
            out = rope_linear_attention(*params, RotaryEncoder(32), "elu", causal=True)
            tensor_sum(out).backward()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params[0].gradient.shape == (1, 2, 512, 32)
        assert peak < 6 * 2**20


class TestSimilarityAttention:
    def test_constant_similarity_averages(self):
        rng = Rng(27)
        q, k, v = (rng.normal_array((4, 3)) for _ in range(3))
        out = similarity_attention(q, k, v, lambda q_m, k: np.ones(len(k)))
        np.testing.assert_allclose(out.data, np.tile(v.mean(0), (4, 1)), atol=1e-14)

    def test_exp_similarity_matches_softmax_attention(self):
        rng = Rng(28)
        q, k, v = (rng.normal_array((6, 4)) for _ in range(3))
        direct = similarity_attention(
            q, k, v, lambda q_m, k: np.exp(k @ q_m / 2.0)
        )
        kernel = softmax_attention(Tensor(q), Tensor(k), Tensor(v))
        np.testing.assert_allclose(direct.data, kernel.data, atol=1e-12)

    def test_delta_kernel_selects_matching_value(self):
        rng = Rng(29)
        q = np.eye(4)
        k = np.eye(4)
        v = rng.normal_array((4, 4))
        out = similarity_attention(
            q, k, v, lambda q_m, k: np.isclose(q_m, k).all(axis=1).astype(float)
        )
        np.testing.assert_allclose(out.data, v, atol=1e-15)

    def test_negative_similarity_rejected(self):
        ones = np.ones((2, 2))
        with pytest.raises(NumericError):
            similarity_attention(ones, ones, ones, lambda q_m, k: -np.ones(len(k)))

    def test_zero_row_rejected(self):
        ones = np.ones((2, 2))
        with pytest.raises(NumericError):
            similarity_attention(ones, ones, ones, lambda q_m, k: np.zeros(len(k)))

    @pytest.mark.parametrize("sim", [lambda q_m, k: 1.0, lambda q_m, k: np.ones((len(k), 1))])
    def test_sim_must_return_one_row(self, sim):
        ones = np.ones((3, 2))
        with pytest.raises(DimensionError):
            similarity_attention(ones, ones, ones, sim)
