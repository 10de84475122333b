"""Tensor substrate: ops, the gradient tape, the RNG, the checker."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from rope_kit import numerics
from rope_kit.errors import ConfigurationError, DataError, DimensionError, NumericError
from rope_kit.numerics import (
    Parameter,
    Rng,
    Tensor,
    cross_entropy,
    elu_plus_one,
    exp,
    ffn,
    gelu,
    grad_check,
    linear,
    matmul,
    mean,
    permute,
    reshape,
    rmsnorm,
    softmax_rows,
    take_rows,
    tape_op,
    tensor_sum,
    transpose,
)

LN2 = math.log(2.0)

# (shape, scale, dtype) drawn in this order from one stream by the
# normal_array digest test: empty, scalar, odd and 2-D shapes, both dtypes.
NORMAL_ARRAY_CASES = [
    ((), 1.0, np.float64),
    ((0,), 1.0, np.float64),
    ((1,), 0.02, np.float32),
    ((7,), 3.0, np.float64),
    ((13,), 0.02, np.float32),
    ((3, 5), 1.0, np.float64),
    ((64, 33), 0.02, np.float32),
]


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

    @pytest.mark.parametrize("n", [1, 513, 2**40 + 3, 2**63])
    def test_randint_array_equals_scalar_draws(self, n):
        array_rng, scalar_rng = Rng(2104), Rng(2104)
        draws = array_rng.randint_array(n, 300)
        assert draws.dtype == np.int64
        assert draws.tolist() == [scalar_rng.randint(n) for _ in range(300)]
        assert array_rng.state == scalar_rng.state

    def test_randint_array_size_zero_keeps_state(self):
        rng = Rng(3)
        before = rng.state
        draws = rng.randint_array(513, 0)
        assert draws.shape == (0,) and draws.dtype == np.int64
        assert rng.state == before

    @pytest.mark.parametrize("n, size", [(0, 4), (-5, 4), (2**63 + 1, 4), (2**64, 4), (513, -1)])
    def test_randint_array_bad_arguments_keep_state(self, n, size):
        rng = Rng(3)
        before = rng.state
        with pytest.raises(ConfigurationError):
            rng.randint_array(n, size)
        assert rng.state == before

    @pytest.mark.parametrize("shape", [(-1,), (3, -2), -4])
    def test_normal_array_negative_dimension_keeps_state(self, shape):
        rng = Rng(3)
        before = rng.state
        with pytest.raises(ConfigurationError):
            rng.normal_array(shape)
        assert rng.state == before

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

    # The goldens below pin the whole stream (normal, randint, spawn and
    # normal_array), not just next_u64: seeded runs, checkpoints and the
    # verify residuals all depend on these exact bits.

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (0, [-1.8839083333524405, 0.22760793546360525,
                 -0.22143788059715477, 0.08341854419566393]),
            (2104, [-0.41307647625062394, -0.4867852951898633,
                    1.01505600682803, -1.6017736145742951]),
        ],
    )
    def test_normal_golden(self, seed, expected):
        rng = Rng(seed)
        assert [rng.normal() for _ in range(4)] == expected

    def test_randint_golden(self):
        rng = Rng(42)
        assert [rng.randint(513) for _ in range(8)] == [370, 262, 99, 108, 376, 231, 370, 320]

    def test_spawn_golden(self):
        rng = Rng(42)
        assert [rng.spawn(i).next_u64() for i in range(3)] == [
            0x57E1FABA65107204,
            0xFC991BCA1A1AA1AE,
            0x0018A66858653D4B,
        ]

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (0, "3a7ca6860c1e6db4fa0888325a64790dafe75b3bd979d6ed63791eefbd43f767"),
            (1, "e5e28fa17827810df5334bdc4165030e6a0a39349a731f58fa52ea2d0c535766"),
            (2104, "49a42f35067ee3c3e602ada90b96eb3f504a2a007b3969f7a2f78ea8bbb09adc"),
            (2**64 - 1, "28e83ca0ab1f0336d69c42b5798d2f28d0d843c6573cb04a3e1a548d60e244a3"),
        ],
    )
    def test_normal_array_digest(self, seed, digest):
        rng = Rng(seed)
        h = hashlib.sha256()
        for shape, scale, dtype in NORMAL_ARRAY_CASES:
            out = rng.normal_array(shape, scale=scale).astype(dtype)
            assert out.shape == shape and out.dtype == dtype
            h.update(out.tobytes())
            h.update(rng.state.to_bytes(8, "little"))
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 1000, 100_000])
    def test_normal_array_matches_scalar_normal(self, n):
        bulk, scalar = Rng(2104), Rng(2104)
        out = bulk.normal_array((n,))
        expected = np.array([scalar.normal() for _ in range(n)], dtype=np.float64)
        assert out.tobytes() == expected.tobytes()
        assert bulk.state == scalar.state


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

    def test_nonfinite_gradient_rejected(self):
        p = Parameter("p", np.ones(2))
        out = tape_op(np.asarray(2.0), (p,), lambda g: (np.full(2, np.nan),), name="poisoned")
        with pytest.raises(NumericError, match="^poisoned backward produced non-finite values$"):
            out.backward()

    def test_float32_preserved(self):
        t = Tensor(np.ones(3, dtype=np.float32))
        assert (t + t).dtype == np.float32

    @pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
    def test_item_of_any_single_value(self, shape):
        assert Tensor(np.full(shape, 2.5, np.float32)).item() == 2.5

    def test_item_needs_a_single_value(self):
        with pytest.raises(DimensionError, match=r"item\(\) needs a single value, got shape \(2, 1\)"):
            Tensor(np.ones((2, 1))).item()

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
        tensor_sum(matmul(w, x)).backward()
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
        with pytest.raises(DataError, match=r"outside \[0, 4\)"):
            cross_entropy(Tensor(np.zeros((1, 4))), [4])
        with pytest.raises(DataError, match=r"outside \[0, 4\)"):
            cross_entropy(Tensor(np.zeros((1, 4))), [-1])

    @pytest.mark.parametrize("targets", [[1.7], np.array([1.0]), np.array([True])],
                             ids=["list-of-floats", "float-array", "bool-array"])
    def test_non_integer_targets_refused(self, targets):
        with pytest.raises(DataError, match="cross_entropy: ids must be integers"):
            cross_entropy(Tensor(np.zeros((1, 4))), targets)

    def test_gradient(self):
        logits = Parameter("logits", Rng(1).normal_array((4, 7)))
        err = grad_check(lambda: cross_entropy(logits, [0, 1, 2, 3]),
                         [logits], Rng(2), samples=10)
        assert err < 1e-6

    def test_backward_leaves_forward_arrays_unchanged(self):
        # The backward divides the kept exp(z) by its kept row sums; a
        # second sweep over the same tape must see them unchanged.
        logits = Parameter("logits", Rng(3).normal_array((5, 9)))
        loss = cross_entropy(logits, [0, 8, 3, 3, 1])
        loss.backward()
        first = logits.gradient.copy()
        logits.grad = None
        loss.backward()
        assert np.array_equal(logits.gradient, first)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leading_axes_match_flattened_rows(self, dtype):
        # (batch, seq, vocab) logits with (batch, seq) targets are the
        # (batch * seq, vocab) call, bit for bit in the loss and gradient.
        rng = Rng(47)
        logits = rng.normal_array((3, 5, 11), scale=3.0).astype(dtype)
        targets = np.array([rng.randint(11) for _ in range(15)]).reshape(3, 5)

        def run(x, ids):
            p = Parameter("logits", x)
            loss = cross_entropy(p, ids)
            loss.backward()
            return loss.data, p.gradient

        shaped_loss, shaped_grad = run(logits, targets)
        flat_loss, flat_grad = run(logits.reshape(15, 11), targets.reshape(15))
        assert shaped_loss.dtype == flat_loss.dtype == dtype
        assert shaped_loss.tobytes() == flat_loss.tobytes()
        assert shaped_grad.shape == logits.shape and shaped_grad.dtype == dtype
        assert shaped_grad.tobytes() == flat_grad.tobytes()

    @pytest.mark.parametrize("target_shape", [(15,), (5, 3), (3, 5, 1), (3, 4)])
    def test_target_shape_must_match_leading_axes(self, target_shape):
        with pytest.raises(DimensionError):
            cross_entropy(Tensor(np.zeros((3, 5, 11))), np.zeros(target_shape, dtype=np.int64))


class TestElementwise:
    def test_elu_plus_one_positive_and_continuous(self):
        x = np.linspace(-20, 20, 401)
        out = elu_plus_one(Tensor(x)).data
        assert (out > 0).all()
        at_zero = elu_plus_one(Tensor([0.0])).data[0]
        assert abs(at_zero - 1.0) < 1e-15

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_elu_plus_one_bit_identical_to_select_formula(self, dtype):
        # elu(x) + 1 and its derivative as selects on x > 0, on a grid with
        # both zeros, both infinities, NaN, subnormals and arguments whose
        # exp underflows (below about -103.9 in float32, -745.1 in float64).
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-45, -1e-45,
                   -87.4, -103.9, -104.0, -708.4, -745.1, -746.0, -1e30, 1e30, 3e38]
        with np.errstate(all="ignore"):
            x = np.concatenate([special, np.linspace(-120.0, 30.0, 1501),
                                Rng(51).normal_array(400, 4.0)]).astype(dtype)
            g = Rng(52).normal_array(x.shape).astype(dtype)
            neg = np.exp(np.minimum(x, 0.0))
            expected = np.where(x > 0, x + 1.0, neg)
            expected_grad = g * np.where(x > 0, 1.0, neg)
            with numerics._unchecked():
                p = Parameter("x", x, dtype=dtype)
                out = elu_plus_one(p)
                tensor_sum(out * Tensor(g)).backward()
        assert_same_bits(out.data, expected)
        assert_same_bits(p.gradient, expected_grad)

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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_bit_identical_to_closed_formula(self, dtype):
        rng = Rng(33)
        x = np.concatenate([np.linspace(-12.0, 12.0, 961), rng.normal_array(600, 3.0)])
        x = x.astype(dtype)
        g = rng.normal_array(x.shape).astype(dtype)
        c = math.sqrt(2.0 / math.pi)
        t = np.tanh(c * (x + 0.044715 * (x * x * x)))
        expected = 0.5 * x * (1.0 + t)
        dinner = c * (1.0 + 3 * 0.044715 * x**2)
        expected_grad = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner)
        p = Parameter("x", x, dtype=dtype)
        out = gelu(p)
        tensor_sum(out * Tensor(g)).backward()
        assert out.dtype == p.gradient.dtype == dtype
        assert np.array_equal(out.data, expected)
        assert np.array_equal(p.gradient, expected_grad)

    @pytest.mark.parametrize("op", ["gelu", "ffn"])
    def test_gelu_gradient_where_u_squared_overflows(self, op):
        # In float32, u^2 overflows at |u| = 1e20 where 1 - tanh^2 is
        # exactly 0; the slope term takes its limit 0 there, without a warning.
        u = Parameter("u", np.array([[1e20, -1e20]]), dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if op == "gelu":
                out = gelu(u)
            else:  # ffn of x = [[1]] has the hidden pre-activation u
                out = ffn(Tensor(np.ones((1, 1), np.float32)), u,
                          Tensor(np.ones((2, 1), np.float32)))
            tensor_sum(out).backward()
        assert np.array_equal(u.gradient, [[1.0, 0.0]])

    def test_rmsnorm_unit_rms(self):
        rng = Rng(8)
        x = rng.normal_array((6, 16), scale=3.0)
        out = rmsnorm(Tensor(x), Tensor(np.ones(16))).data
        rms = np.sqrt((out**2).mean(axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-4)  # eps offsets slightly

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 64, 32), (3, 19)], ids=["8x64x32", "3x19"])
    def test_rmsnorm_gradients_bit_identical_to_formula(self, shape, dtype):
        rng = Rng(53)
        x = rng.normal_array(shape, 2.0).astype(dtype)
        gain = rng.normal_array(shape[-1:]).astype(dtype)
        g = rng.normal_array(shape).astype(dtype)
        d = shape[-1]
        scale = 1.0 / np.sqrt((numerics._row_dot(x, x) / d)[..., None] + 1e-5)
        g_normed = g * gain
        dot = numerics._row_dot(g_normed, x)[..., None]
        expected_x = scale * (g_normed - (scale**2 / d) * x * dot)
        rows = (g * (x * scale)).reshape(-1, d)
        expected_gain = np.ones(len(rows), dtype) @ rows
        px, pgain = Parameter("x", x, dtype=dtype), Parameter("gain", gain, dtype=dtype)
        tensor_sum(rmsnorm(px, pgain) * Tensor(g)).backward()
        assert_same_bits(px.gradient, expected_x)
        assert_same_bits(pgain.gradient, expected_gain)

    def test_take_rows_and_gradient(self):
        table = Parameter("t", np.arange(12.0).reshape(4, 3))
        out = take_rows(table, np.array([[0, 2], [2, 3]]))
        np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0, 8.0])
        tensor_sum(out).backward()
        np.testing.assert_array_equal(table.gradient[:, 0], [1.0, 0.0, 2.0, 1.0])
        with pytest.raises(DataError, match=r"outside \[0, 4\)"):
            take_rows(table, [4])

    @pytest.mark.parametrize("ids", [[1.7], np.array([1.0]), np.array([True])],
                             ids=["list-of-floats", "float-array", "bool-array"])
    def test_take_rows_refuses_non_integer_ids(self, ids):
        # A cast would read id 1.7 as row 1.
        with pytest.raises(DataError, match="take_rows: ids must be integers"):
            take_rows(Tensor(np.arange(8.0).reshape(4, 2)), ids)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_take_rows_gradient_sums_repeated_ids(self, dtype):
        # Each id's rows are summed in gather order: the result is within
        # rounding of np.add.at, exact on integers, and an unused row is 0.
        rng = Rng(48)
        table = Parameter("t", rng.normal_array((9, 5)), dtype=dtype)
        ids = rng.randint_array(8, 60).reshape(3, 20)
        out = take_rows(table, ids)
        grad = rng.normal_array(out.shape).astype(dtype)
        tensor_sum(out * Tensor(grad)).backward()
        expected = np.zeros((9, 5), dtype)
        np.add.at(expected, ids.reshape(-1), grad.reshape(-1, 5))
        np.testing.assert_allclose(table.gradient, expected, rtol=1e-5 if dtype == np.float32
                                   else 1e-12, atol=0)
        assert not table.gradient[8].any()

    def test_take_rows_gradient_of_no_ids(self):
        table = Parameter("t", np.ones((4, 3)))
        out = take_rows(table, np.zeros((2, 0), dtype=np.int64))
        assert out.shape == (2, 0, 3)
        tensor_sum(out).backward()
        np.testing.assert_array_equal(table.gradient, np.zeros((4, 3)))


class TestRowReductions:
    """The private row sums and row dots of the softmax, norm and loss ops."""

    SHAPES = [(512, 32), (16, 64, 64), (512, 256), (3, 19)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_results_do_not_depend_on_memory_offset(self, shape, dtype):
        # Every training step holds its arrays in fresh memory, so a rerun
        # is bit-identical only if a row's sum does not depend on where
        # the row sits. 16 element offsets inside one larger buffer.
        rng = Rng(49)
        size = math.prod(shape)
        a = rng.normal_array(shape).astype(dtype)
        b = rng.normal_array(shape).astype(dtype)
        sums, dots = set(), set()
        for offset in range(16):
            buffer = np.empty(2 * size + 32, dtype)
            x = buffer[offset:offset + size].reshape(shape)
            y_offset = size + 16 + 7 * offset % 16
            y = buffer[y_offset:y_offset + size].reshape(shape)
            x[...], y[...] = a, b
            sums.add(numerics._row_sum(x).tobytes())
            dots.add(numerics._row_dot(x, y).tobytes())
        assert len(sums) == 1 and len(dots) == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_row_max_is_numpys_max_at_any_memory_offset(self, shape, dtype):
        rng = Rng(54)
        size = math.prod(shape)
        a = rng.normal_array(shape).astype(dtype)
        a.reshape(-1)[::5] = -np.inf  # masked scores
        expected = a.max(axis=-1, keepdims=True).tobytes()
        for offset in range(16):
            x = np.empty(size + 16, dtype)[offset:offset + size].reshape(shape)
            x[...] = a
            assert numerics._row_max(x).tobytes() == expected

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_match_numpy_reductions(self, dtype):
        rng = Rng(50)
        a = rng.normal_array((4, 7, 33)).astype(dtype)
        b = rng.normal_array((4, 7, 33)).astype(dtype)
        rtol = 1e-5 if dtype == np.float32 else 1e-13
        assert numerics._row_sum(a).dtype == numerics._row_dot(a, b).dtype == dtype
        np.testing.assert_allclose(numerics._row_sum(a), a.sum(axis=-1), rtol=rtol, atol=rtol)
        np.testing.assert_allclose(numerics._row_dot(a, b), (a * b).sum(axis=-1), rtol=rtol,
                                   atol=rtol)


class TestNaNRows:
    """With the tape's checks off, a row holding a NaN comes out all NaN and
    leaves the other rows finite."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_rows(self, dtype):
        x = Rng(55).normal_array((4, 9)).astype(dtype)
        x[1, 3] = np.nan
        mask = np.ones((4, 9), bool)
        mask[2, 5] = False
        x[2, 5] = np.nan  # masked out, so row 2 stays finite
        with numerics._unchecked(), np.errstate(all="ignore"):
            plain = softmax_rows(Tensor(x, dtype=dtype)).data
            masked = softmax_rows(Tensor(x, dtype=dtype), mask=mask).data
        for out, nan_rows in ((plain, [1, 2]), (masked, [1])):
            assert np.isnan(out[nan_rows]).all()
            assert np.isfinite(np.delete(out, nan_rows, axis=0)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy(self, dtype):
        logits = Rng(56).normal_array((4, 11)).astype(dtype)
        logits[2, 7] = np.nan
        with numerics._unchecked(), np.errstate(all="ignore"):
            p = Parameter("logits", logits, dtype=dtype)
            loss = cross_entropy(p, [0, 1, 2, 3])
            loss.backward()
        assert np.isnan(loss.data)
        assert np.isnan(p.gradient[2]).all()
        assert np.isfinite(np.delete(p.gradient, 2, axis=0)).all()


def assert_same_bits(actual: np.ndarray, expected: np.ndarray) -> None:
    """Equal dtype and shape, NaN at the same places, and every other
    entry the same bits (so a -0.0 never stands for 0.0)."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


def leaf(values, dtype=np.float64) -> Tensor:
    return Tensor(np.asarray(values, dtype=dtype), requires_grad=True)


class TestFirstWrite:
    """A tensor's first gradient is stored without a copy only when it is
    fresh for that tensor; these pin the cases where it must be copied."""

    def test_x_plus_x(self):
        # _add hands the incoming gradient itself to both parents.
        x = leaf([1.0, -2.0, 3.0])
        y = x + x
        tensor_sum(y * Tensor([1.0, 10.0, 100.0])).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 20.0, 200.0])
        np.testing.assert_array_equal(y.grad, [1.0, 10.0, 100.0])

    def test_x_times_x(self):
        x = leaf([1.0, -2.0, 3.0])
        tensor_sum(x * x).backward()
        np.testing.assert_array_equal(x.grad, [2.0, -4.0, 6.0])

    def test_one_fresh_array_for_two_parents(self):
        a, b = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        out = tape_op(a.data + b.data, (a, b), lambda g: (2.0 * g,) * 2, name="twin")
        tensor_sum(out).backward()
        assert a.grad is not b.grad
        a.grad[0] = 99.0
        np.testing.assert_array_equal(b.grad, [2.0, 2.0])

    def test_gradient_in_another_dtype_is_cast(self):
        a = leaf([1.0, 2.0], dtype=np.float32)
        out = tape_op(a.data * 3, (a,), lambda g: (np.full(2, 1 / 3),), name="wide")
        tensor_sum(out).backward()
        assert a.grad.dtype == np.float32
        np.testing.assert_array_equal(a.grad, np.float32(1 / 3))

    @pytest.mark.parametrize("form", ["plain", "split", "merge", "ffn"])
    def test_fused_dense_gradients_are_stored_without_copy(self, form, monkeypatch):
        returned = []
        original = numerics.tape_op

        def recording_tape_op(data, parents, grad_fn, name="op"):
            def recorded(g):
                grads = grad_fn(g)
                if name in ("linear", "ffn"):
                    returned.extend(grads)
                return grads
            return original(data, parents, recorded, name)

        monkeypatch.setattr(numerics, "tape_op", recording_tape_op)
        rng = Rng(19)
        x = leaf(rng.normal_array((2, 2, 3, 4) if form == "merge" else (2, 3, 8)))
        w = leaf(rng.normal_array((8, 8)))
        if form == "ffn":
            w2 = leaf(rng.normal_array((8, 8)))
            out, parents = ffn(x, w, w2), [x, w, w2]
        else:
            options = {"split": dict(split_heads=2), "merge": dict(merge_heads=True)}
            out, parents = linear(x, w, **options.get(form, {})), [x, w]
        tensor_sum(out * out).backward()
        assert len(returned) == len(parents)
        for parent, grad in zip(parents, returned):
            assert parent.grad is grad

    def test_writing_one_grad_leaves_the_others(self):
        rng = Rng(17)
        a, b, w = (leaf(rng.normal_array(shape)) for shape in ((2, 3), (2, 3), (3, 3)))
        s = a + b
        t = transpose(s)
        r = reshape(t, (6,))
        m = matmul(a, w)
        e = exp(b)
        loss = tensor_sum(r * r) + mean(m) + tensor_sum(e)
        loss.backward()
        nodes = [a, b, w, s, t, r, m, e, loss]
        before = [n.grad.copy() for n in nodes]
        for i, node in enumerate(nodes):
            node.grad[...] = 7.0
            for j, other in enumerate(nodes):
                if j != i:
                    np.testing.assert_array_equal(other.grad, before[j])
            node.grad[...] = before[i]


def heads_chain(x: Tensor, w: Tensor, heads: int) -> Tensor:
    """The matmul, reshape, permute chain that ``linear(split_heads=...)`` fuses."""
    batch, seq, _ = x.data.shape
    split = reshape(matmul(x, w), (batch, seq, heads, w.data.shape[1] // heads))
    return permute(split, (0, 2, 1, 3))


def merge_chain(x: Tensor, w: Tensor) -> Tensor:
    """The permute, reshape, matmul chain that ``linear(merge_heads=True)`` fuses."""
    batch, heads, seq, dim = x.data.shape
    return matmul(reshape(permute(x, (0, 2, 1, 3)), (batch, seq, heads * dim)), w)


class TestFusedDense:
    """``linear`` and ``ffn`` against the chains of tape ops they replace."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("fused_op", ["linear", "ffn"])
    def test_matches_composed_tape_ops_bit_for_bit(self, fused_op, dtype):
        rng = Rng(41)
        arrays = [rng.normal_array((23, 12)), rng.normal_array((12, 20), scale=0.5),
                  rng.normal_array((20, 7), scale=0.5)]

        def run(fused):
            params = [Parameter(n, a, dtype=dtype) for n, a in zip(("x", "w1", "w2"), arrays)]
            x, w1, w2 = params
            if fused_op == "linear":
                params = params[:2]
                out = linear(x, w1) if fused else matmul(x, w1)
            else:
                out = ffn(x, w1, w2) if fused else matmul(gelu(matmul(x, w1)), w2)
            tensor_sum(out * out).backward()
            return [out.data] + [p.gradient for p in params]

        for fused, composed in zip(run(True), run(False)):
            assert fused.dtype == composed.dtype == dtype
            assert np.array_equal(fused, composed)

    @pytest.mark.parametrize("form", ["plain", "split", "merge"])
    def test_linear_forms_match_chain_and_gradient(self, form):
        rng = Rng(43)
        shape = (3, 2, 7, 4) if form == "merge" else (3, 7, 8)
        x = Parameter("x", rng.normal_array(shape))
        w = Parameter("w", rng.normal_array((8, 6)))
        options = {"split": dict(split_heads=2), "merge": dict(merge_heads=True)}.get(form, {})
        if form == "split":
            expected = heads_chain(x, w, 2)
        elif form == "merge":
            expected = merge_chain(x, w)
        else:
            expected = matmul(x, w)
        weights = Tensor(rng.normal_array(expected.shape))
        out = linear(x, w, **options)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out.data, expected.data, rtol=1e-13, atol=1e-15)
        err = grad_check(lambda: tensor_sum(linear(x, w, **options) * weights),
                         [x, w], Rng(44), samples=30)
        assert err < 1e-6

    def test_ffn_gradient(self):
        rng = Rng(45)
        x = Parameter("x", rng.normal_array((3, 5, 6)))
        w1 = Parameter("w1", rng.normal_array((6, 24)))
        w2 = Parameter("w2", rng.normal_array((24, 6), scale=0.3))
        weights = Tensor(rng.normal_array((3, 5, 6)))
        out = ffn(x, w1, w2)
        expected = matmul(gelu(matmul(x, w1)), w2)
        np.testing.assert_allclose(out.data, expected.data, rtol=1e-13, atol=1e-15)
        err = grad_check(lambda: tensor_sum(ffn(x, w1, w2) * weights),
                         [x, w1, w2], Rng(46), samples=40)
        assert err < 1e-6

    def test_shape_errors(self):
        x = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(DimensionError):
            linear(x, Tensor(np.ones((5, 2))))
        with pytest.raises(DimensionError):
            linear(x, Tensor(np.ones((4, 6))), split_heads=4)
        with pytest.raises(DimensionError):
            linear(x, Tensor(np.ones((4, 6))), merge_heads=True)
        with pytest.raises(DimensionError):
            ffn(x, Tensor(np.ones((4, 8))), Tensor(np.ones((7, 4))))

    def test_huge_hidden_values_warn_only_of_overflow(self):
        # A hidden layer that overflows is the op's NumericError; a finite
        # one whose cube overflows saturates the GELU's tanh. Neither may
        # raise any warning other than the product's overflow.
        w1 = Tensor(np.full((3, 4), 1e10, dtype=np.float32))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.filterwarnings("ignore", "overflow encountered in matmul")
            with pytest.raises(NumericError, match="ffn"):
                ffn(Tensor(np.full((2, 3), 1e30, dtype=np.float32)), w1,
                    Tensor(np.ones((4, 3), dtype=np.float32)))
            out = ffn(Tensor(np.full((2, 3), -1e6, dtype=np.float32)), w1,
                      Tensor(np.full((4, 3), 1e-20, dtype=np.float32)))
        np.testing.assert_array_equal(out.data, 0.0)


class TestGradCheck:
    def test_quadratic_is_exact(self):
        p = Parameter("w", [3.0])
        loss = tensor_sum(p * p)
        loss.backward()
        assert abs(p.gradient[0] - 6.0) < 1e-12
        err = grad_check(lambda: tensor_sum(p * p), [p], Rng(0), samples=5)
        assert err < 1e-9

    def test_linear_map_gradient_is_broadcast_input(self):
        rng = Rng(13)
        w = Parameter("w", rng.normal_array((3, 2)))
        x = Tensor(rng.normal_array((2, 4)))
        err = grad_check(lambda: tensor_sum(matmul(w, x)), [w], Rng(14), samples=6)
        assert err < 1e-8

    def test_op_composition(self):
        rng = Rng(15)
        w = Parameter("w", rng.normal_array((6, 6)))
        x = Tensor(rng.normal_array((6, 6)))

        def f():
            h = gelu(matmul(w, x))
            return mean(softmax_rows(h) * rmsnorm(h, Tensor(np.ones(6))))

        assert grad_check(f, [w], Rng(16), samples=20) < 1e-4

    def test_loss_of_shape_one_by_one(self):
        p = Parameter("w", [[3.0]])
        err = grad_check(lambda: matmul(p, p), [p], Rng(0), samples=3)
        assert err < 1e-9

    def test_rejects_float32_parameters(self):
        p = Parameter("w", np.ones(2, dtype=np.float32))
        with pytest.raises(ConfigurationError):
            grad_check(lambda: tensor_sum(p), [p], Rng(0), samples=1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_no_samples(self, samples):
        # No entry compared would return 0.0, passing any tolerance.
        p = Parameter("w", [3.0])
        with pytest.raises(ConfigurationError, match="samples"):
            grad_check(lambda: tensor_sum(p), [p], Rng(0), samples=samples)
