"""Tensor substrate: ops, the gradient tape, the RNG, the checker."""

import math

import numpy as np
import pytest

from rope_kit.errors import ConfigurationError, DimensionError, NumericError
from rope_kit.numerics import (
    Parameter,
    Rng,
    Tensor,
    cross_entropy,
    elu_plus_one,
    exp,
    gelu,
    grad_check,
    matmul,
    mean,
    rmsnorm,
    softmax_rows,
    take_rows,
    tensor_sum,
)

LN2 = math.log(2.0)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(123), Rng(123)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_known_stream_frozen(self):
        # splitmix64 reference values for seed 0 (algorithm fixed forever).
        rng = Rng(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4
        assert rng.next_u64() == 0x06C45D188009454F

    def test_uniform_range(self):
        rng = Rng(7)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_normal_moments(self):
        rng = Rng(11)
        draws = np.array([rng.normal() for _ in range(4000)])
        assert abs(draws.mean()) < 0.1
        assert abs(draws.std() - 1.0) < 0.1

    def test_randint_bounds_and_errors(self):
        rng = Rng(5)
        assert all(0 <= rng.randint(7) < 7 for _ in range(200))
        with pytest.raises(ConfigurationError):
            rng.randint(0)

    def test_state_roundtrip_resumes_stream(self):
        rng = Rng(9)
        [rng.next_u64() for _ in range(10)]
        saved = rng.state
        ahead = [rng.next_u64() for _ in range(5)]
        other = Rng(9)
        other.state = saved
        assert [other.next_u64() for _ in range(5)] == ahead

    def test_spawn_streams_differ(self):
        rng = Rng(42)
        a, b = rng.spawn(0), rng.spawn(1)
        assert a.next_u64() != b.next_u64()
        # spawning is a function of the seed, not of consumption
        rng.next_u64()
        assert rng.spawn(0).next_u64() == Rng(42).spawn(0).next_u64()


class TestTensor:
    def test_shape_matches_storage(self):
        t = Tensor(np.arange(12.0).reshape(3, 4))
        assert t.shape == (3, 4)
        assert t.data.size == 12

    def test_nonfinite_construction_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, float("nan")])
        with pytest.raises(NumericError):
            Tensor([float("inf")])

    def test_nonfinite_result_rejected(self):
        with pytest.raises(NumericError):
            exp(Tensor([1000.0]))  # overflows float64

    def test_float32_preserved(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert (t + t).dtype == np.float32

    def test_backward_needs_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(DimensionError):
            (t + t).backward()


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector(self):
        out = matmul(Tensor([[1.0, 0.0], [0.0, 0.0]]), Tensor([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [0.0]])

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        with pytest.raises(DimensionError):
            matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_associativity_on_random_chains(self):
        rng = Rng(21)
        for _ in range(50):
            a, b, c = (Tensor(rng.normal_array((4, 4))) for _ in range(3))
            left = matmul(matmul(a, b), c).data
            right = matmul(a, matmul(b, c)).data
            assert np.abs(left - right).max() < 1e-10

    def test_gradients(self):
        w = Parameter("w", [[1.0, 2.0], [3.0, 4.0]])
        x = Tensor([[5.0], [6.0]])
        tensor_sum(matmul(w.tensor, x)).backward()
        np.testing.assert_array_equal(w.gradient, [[5.0, 6.0], [5.0, 6.0]])


class TestSoftmaxRows:
    def test_symmetric_row(self):
        out = softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_log_ratio_row(self):
        out = softmax_rows(Tensor([[0.0, LN2]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_huge_inputs_stable(self):
        out = softmax_rows(Tensor([[1000.0, 1000.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]], atol=1e-15)

    def test_rows_sum_to_one(self):
        rng = Rng(3)
        out = softmax_rows(Tensor(rng.normal_array((20, 16), scale=5.0)))
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_constant_shift_invariance(self):
        rng = Rng(4)
        x = rng.normal_array((8, 8), scale=3.0)
        base = softmax_rows(Tensor(x)).data
        shifted = softmax_rows(Tensor(x + 123.0)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_mask_excludes_entries(self):
        mask = np.array([[True, True, False]])
        out = softmax_rows(Tensor([[0.0, 0.0, 50.0]]), mask=mask)
        np.testing.assert_allclose(out.data, [[0.5, 0.5, 0.0]], atol=1e-15)

    def test_fully_masked_row_rejected(self):
        with pytest.raises(NumericError):
            softmax_rows(Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 256)))
        out = cross_entropy(logits, [0, 17, 255])
        assert abs(out.item() - math.log(256.0)) < 1e-12

    def test_one_hot_limit(self):
        losses = []
        for c in (1.0, 5.0, 30.0):
            row = np.zeros((1, 256))
            row[0, 0] = c
            losses.append(cross_entropy(Tensor(row), [0]).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-8

    def test_hand_value(self):
        out = cross_entropy(Tensor([[LN2, 0.0]]), [0])
        assert abs(out.item() - (-math.log(2 / 3))) < 1e-12

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((1, 4))), [4])
        with pytest.raises(IndexError):
            cross_entropy(Tensor(np.zeros((1, 4))), [-1])

    def test_gradient(self):
        logits = Parameter("logits", Rng(1).normal_array((4, 7)))
        err = grad_check(lambda: cross_entropy(logits.tensor, [0, 1, 2, 3]),
                         [logits], Rng(2), samples=10)
        assert err < 1e-6


class TestElementwise:
    def test_elu_plus_one_positive_and_continuous(self):
        x = np.linspace(-20, 20, 401)
        out = elu_plus_one(Tensor(x)).data
        assert (out > 0).all()
        at_zero = elu_plus_one(Tensor([0.0])).data[0]
        assert abs(at_zero - 1.0) < 1e-15

    def test_exp_matches_numpy(self):
        x = Rng(6).normal_array((5,))
        np.testing.assert_allclose(exp(Tensor(x)).data, np.exp(x), rtol=1e-15)

    def test_gelu_fixed_points(self):
        out = gelu(Tensor([0.0, 100.0, -100.0])).data
        assert out[0] == 0.0
        assert abs(out[1] - 100.0) < 1e-10
        assert abs(out[2]) < 1e-10

    def test_gelu_float32_matches_float64_formula(self):
        x = np.linspace(-10.0, 10.0, 2001).astype(np.float32)
        c = math.sqrt(2.0 / math.pi)
        x64 = x.astype(np.float64)
        expected = 0.5 * x64 * (1.0 + np.tanh(c * (x64 + 0.044715 * x64**3)))
        out = gelu(Tensor(x)).data
        assert out.dtype == np.float32
        # On the negative tail 1 + tanh cancels, so float32 keeps only an
        # absolute error there: one float32 spacing at the range's edge.
        np.testing.assert_allclose(out, expected, rtol=1e-6, atol=np.spacing(np.float32(10.0)))

    def test_rmsnorm_unit_rms(self):
        rng = Rng(8)
        x = rng.normal_array((6, 16), scale=3.0)
        out = rmsnorm(Tensor(x), Tensor(np.ones(16))).data
        rms = np.sqrt((out**2).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-4)  # eps offsets slightly

    def test_take_rows_and_gradient(self):
        table = Parameter("t", np.arange(12.0).reshape(4, 3))
        out = take_rows(table.tensor, np.array([[0, 2], [2, 3]]))
        np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0, 8.0])
        tensor_sum(out).backward()
        np.testing.assert_array_equal(table.gradient[:, 0], [1.0, 0.0, 2.0, 1.0])
        with pytest.raises(IndexError):
            take_rows(table.tensor, [4])


class TestGradCheck:
    def test_quadratic_is_exact(self):
        p = Parameter("w", [3.0])
        loss = tensor_sum(p.tensor * p.tensor)
        loss.backward()
        assert abs(p.gradient[0] - 6.0) < 1e-12
        err = grad_check(lambda: tensor_sum(p.tensor * p.tensor), [p], Rng(0), samples=5)
        assert err < 1e-9

    def test_linear_map_gradient_is_broadcast_input(self):
        rng = Rng(13)
        w = Parameter("w", rng.normal_array((3, 2)))
        x = Tensor(rng.normal_array((2, 4)))
        err = grad_check(lambda: tensor_sum(matmul(w.tensor, x)), [w], Rng(14), samples=6)
        assert err < 1e-8

    def test_op_composition(self):
        rng = Rng(15)
        w = Parameter("w", rng.normal_array((6, 6)))
        x = Tensor(rng.normal_array((6, 6)))

        def f():
            h = gelu(matmul(w.tensor, x))
            return mean(softmax_rows(h) * rmsnorm(h, Tensor(np.ones(6))))

        assert grad_check(f, [w], Rng(16), samples=20) < 1e-4

    def test_rejects_float32_parameters(self):
        p = Parameter("w", np.ones(2, dtype=np.float32))
        with pytest.raises(ConfigurationError):
            grad_check(lambda: tensor_sum(p.tensor), [p], Rng(0), samples=1)
