"""Rotation operator: frequency set, row memo, dense/sparse forms, scores."""

import math
import tracemalloc

import numpy as np
import pytest

from rope_kit.errors import ConfigurationError, DimensionError
from rope_kit.numerics import Parameter, Rng, Tensor, grad_check, tensor_sum
from rope_kit.rotary import (
    RotaryEncoder,
    apply_rotary,
    apply_rotary_rows,
    complex_rope_score_2d,
    dense_rotation_matrix,
    rope_score,
)

COS1, SIN1 = math.cos(1.0), math.sin(1.0)


class TestSchedule:
    """The frequency set Theta that ``RotaryEncoder`` builds and holds."""

    def test_dim_2(self):
        np.testing.assert_array_equal(RotaryEncoder(2).thetas, [1.0])

    def test_dim_4(self):
        np.testing.assert_allclose(RotaryEncoder(4).thetas, [1.0, 0.01], rtol=1e-15)

    def test_dim_8_powers_of_ten(self):
        np.testing.assert_allclose(
            RotaryEncoder(8).thetas, [1.0, 0.1, 0.01, 0.001], rtol=1e-15
        )

    def test_first_frequency_exactly_one(self):
        for dim in (2, 4, 64, 128):
            assert RotaryEncoder(dim).thetas[0] == 1.0

    def test_strictly_decreasing(self):
        thetas = RotaryEncoder(128).thetas
        assert (np.diff(thetas) < 0).all()

    @pytest.mark.parametrize("dim", [2, 8, 64, 128])
    def test_default_ladder_bitwise(self, dim):
        thetas = RotaryEncoder(dim).thetas
        expected = 10000.0 ** (-2.0 * np.arange(dim // 2, dtype=np.float64) / dim)
        assert thetas.dtype == np.float64
        assert thetas.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dim", [0, -2, 1, 3, 7])
    def test_bad_dims_rejected(self, dim):
        with pytest.raises(ConfigurationError):
            RotaryEncoder(dim)

    @pytest.mark.parametrize("thetas", [[], [1.0], [1.0, 0.1, 0.01], [[1.0, 0.1, 0.01]]])
    def test_wrong_length_thetas_rejected(self, thetas):
        with pytest.raises(ConfigurationError):
            RotaryEncoder(4, thetas)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_thetas_rejected(self, bad):
        with pytest.raises(ConfigurationError, match="finite"):
            RotaryEncoder(4, [bad, 1.0])

    def test_given_thetas_are_copied_read_only(self):
        given = np.array([0.5, 0.25])
        enc = RotaryEncoder(4, given)
        given[0] = 9.0
        np.testing.assert_array_equal(enc.thetas, [0.5, 0.25])
        for thetas in (enc.thetas, RotaryEncoder(4).thetas):
            with pytest.raises(ValueError):
                thetas[0] = 2.0


class TestThetaSets:
    """Theta of shape (..., dim/2): one rotation per set, in one call."""

    THETAS = np.array([0.1, 0.77, 1.3, 2.0, 0.1 + 1.9 * 0.999])

    def test_dense_matrix_stacks_single_set_calls(self):
        positions = np.arange(17)
        stacked = dense_rotation_matrix(RotaryEncoder(2, self.THETAS[:, None]), positions)
        assert stacked.shape == (17, len(self.THETAS), 2, 2)
        for t, theta in enumerate(self.THETAS):
            single = dense_rotation_matrix(RotaryEncoder(2, [theta]), positions)
            assert stacked[:, t].tobytes() == single.tobytes()

    def test_rope_score_stacks_single_set_calls(self):
        rng = Rng(41)
        q, k = rng.normal_array((len(self.THETAS), 2)), rng.normal_array((len(self.THETAS), 2))
        grid = np.arange(0, 9, 2)
        enc = RotaryEncoder(2, self.THETAS[:, None])
        scores = rope_score(q, k, grid[:, None], grid, enc)
        assert scores.shape == (5, 5, len(self.THETAS))
        for t, theta in enumerate(self.THETAS):
            single = rope_score(q[t], k[t], grid[:, None], grid, RotaryEncoder(2, [theta]))
            assert scores[..., t].tobytes() == single.tobytes()

    def test_rotating_rows_needs_one_set(self):
        enc = RotaryEncoder(4, [[1.0, 0.1], [0.5, 0.05]])
        x = np.ones((3, 4))
        with pytest.raises(ConfigurationError):
            apply_rotary(enc, x, 1)
        with pytest.raises(ConfigurationError):
            apply_rotary_rows(enc, x)
        with pytest.raises(ConfigurationError):
            apply_rotary_rows(enc, Tensor(x))
        with pytest.raises(ConfigurationError):
            enc.rows(3)

    @pytest.mark.parametrize("thetas", [[[1.0, math.nan]], [[1.0], [0.5]], np.ones((2, 3, 1))])
    def test_bad_sets_rejected(self, thetas):
        with pytest.raises(ConfigurationError):
            RotaryEncoder(4, thetas)


class TestEncoderTables:
    def test_one_phase_per_pair(self):
        enc = RotaryEncoder(8)
        phases = enc.rows(21)
        assert phases.shape == (21, 4) and phases.dtype == np.complex128
        for m in (0, 1, 7, 20):
            for i in range(4):
                angle = m * enc.thetas[i]
                assert phases[m, i] == complex(math.cos(angle), math.sin(angle))

    def test_memo_matches_fresh_tables(self):
        enc = RotaryEncoder(8)
        for seq in (20, 4, 20):
            phases = enc.rows(seq)
            assert phases.shape == (seq, 4)
            assert phases.tobytes() == RotaryEncoder(8).rows(seq).tobytes()
            assert not phases.flags.writeable

    def test_far_position_allocates_nothing(self):
        enc = RotaryEncoder(128)
        x = np.ones(128)
        tracemalloc.start()
        try:
            apply_rotary(enc, x, 5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6, f"rotating one vector to position 5000 peaked at {peak / 1e6:.1f} MB"


class TestApplyRotary:
    def test_position_zero_is_identity(self):
        enc = RotaryEncoder(6)
        x = Rng(1).normal_array((6,))
        np.testing.assert_array_equal(apply_rotary(enc, x, 0), x)

    def test_2d_unit_x(self):
        out = apply_rotary(RotaryEncoder(2), np.array([1.0, 0.0]), 1)
        np.testing.assert_allclose(out, [COS1, SIN1], atol=1e-15)

    def test_2d_unit_y(self):
        out = apply_rotary(RotaryEncoder(2), np.array([0.0, 1.0]), 1)
        np.testing.assert_allclose(out, [-SIN1, COS1], atol=1e-15)

    def test_norm_preserved(self):
        enc = RotaryEncoder(64)
        rng = Rng(2)
        for _ in range(200):
            x = rng.normal_array((64,))
            m = rng.randint(513)
            assert abs(np.linalg.norm(apply_rotary(enc, x, m)) - np.linalg.norm(x)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply_rotary(RotaryEncoder(4), np.ones(6), 1)

    def test_batch_shapes_rotate_last_axis(self):
        enc = RotaryEncoder(4)
        x = Rng(3).normal_array((2, 3, 4))
        out = apply_rotary(enc, x, 5)
        for i in range(2):
            for j in range(3):
                np.testing.assert_array_equal(out[i, j], apply_rotary(enc, x[i, j], 5))

    def test_rows_variant_uses_row_index(self):
        enc = RotaryEncoder(4)
        x = Rng(4).normal_array((5, 4))
        out = apply_rotary_rows(enc, x)
        for t in range(5):
            np.testing.assert_array_equal(out[t], apply_rotary(enc, x[t], t))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("wrap", [np.asarray, Tensor])
    def test_rows_variant_equals_explicit_positions(self, wrap, dtype):
        enc = RotaryEncoder(6)
        x = Rng(4).normal_array((2, 7, 6)).astype(dtype)
        out = apply_rotary_rows(enc, wrap(x))
        expected = apply_rotary(enc, wrap(x), np.arange(7))
        out, expected = (r.data if isinstance(r, Tensor) else r for r in (out, expected))
        assert out.dtype == expected.dtype
        np.testing.assert_array_equal(out, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batched_rows_match_each_row_alone(self, dtype):
        # training rotates a strided split-heads view; a sequence shorter
        # than the context and a stacked theta set lean on the same property
        enc = RotaryEncoder(16)
        merged = Rng(15).normal_array((2, 9, 2 * 16)).astype(dtype)
        split = merged.reshape(2, 9, 2, 16).transpose(0, 2, 1, 3)
        outs = [apply_rotary_rows(enc, Tensor(x)).data for x in (split, split.copy())]
        assert not split.flags.c_contiguous
        assert outs[0].tobytes() == outs[1].tobytes()
        for index in np.ndindex(split.shape[:-1]):
            alone = apply_rotary(enc, Tensor(split[index]), index[-1]).data
            assert outs[0][index].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("wrap", [np.asarray, Tensor])
    def test_rows_variant_empty_sequence(self, wrap):
        out = apply_rotary_rows(RotaryEncoder(4), wrap(np.ones((3, 0, 4))))
        out = out.data if isinstance(out, Tensor) else out
        assert out.shape == (3, 0, 4)

    @pytest.mark.parametrize("wrap", [np.asarray, Tensor])
    def test_rows_variant_needs_a_row_axis(self, wrap):
        with pytest.raises(DimensionError):
            apply_rotary_rows(RotaryEncoder(4), wrap(np.ones(4)))

    @pytest.mark.parametrize("wrap", [np.asarray, Tensor])
    def test_position_array_rotates_each_row(self, wrap):
        enc = RotaryEncoder(6)
        x = Rng(7).normal_array((2, 5, 6))
        positions = np.array([3, 0, 70, 3, 9])
        out = apply_rotary(enc, wrap(x), positions)
        out = out.data if isinstance(out, Tensor) else out
        for t, m in enumerate(positions):
            expected = apply_rotary(enc, wrap(x[:, t]), int(m))
            expected = expected.data if isinstance(expected, Tensor) else expected
            np.testing.assert_array_equal(out[:, t], expected)

    def test_position_array_wrong_shape_rejected(self):
        enc = RotaryEncoder(4)
        with pytest.raises(DimensionError):
            apply_rotary(enc, np.ones((5, 4)), np.arange(4))
        with pytest.raises(DimensionError):
            apply_rotary(enc, np.ones(4), np.arange(1))

    def test_negative_positions_rejected(self):
        enc = RotaryEncoder(4)
        with pytest.raises(ConfigurationError):
            apply_rotary(enc, np.ones((3, 4)), np.array([0, -1, 1]))
        with pytest.raises(ConfigurationError):
            apply_rotary(enc, np.ones(4), -1)

    def test_non_integer_positions_rejected(self):
        # a float array would otherwise be truncated to integer positions
        with pytest.raises(ConfigurationError):
            apply_rotary(RotaryEncoder(4), np.ones((2, 4)), np.array([0.5, 1.7]))
        with pytest.raises(ConfigurationError):
            apply_rotary(RotaryEncoder(4), np.ones(4), 2.0)

    def test_gradient_is_inverse_rotation(self):
        enc = RotaryEncoder(8)
        p = Parameter("x", Rng(5).normal_array((3, 8)))
        err = grad_check(
            lambda: tensor_sum(apply_rotary(enc, p, 9) * apply_rotary(enc, p, 2)),
            [p], Rng(6), samples=10,
        )
        assert err < 1e-8


class TestDenseMatrix:
    def test_position_zero_identity(self):
        np.testing.assert_array_equal(dense_rotation_matrix(RotaryEncoder(6), 0), np.eye(6))

    def test_2d_rotation_block(self):
        mat = dense_rotation_matrix(RotaryEncoder(2), 1)
        np.testing.assert_allclose(mat, [[COS1, -SIN1], [SIN1, COS1]], atol=1e-15)

    def test_4d_blocks_use_scheduled_angles(self):
        mat = dense_rotation_matrix(RotaryEncoder(4), 2)
        np.testing.assert_allclose(mat[:2, :2],
                                   [[math.cos(2.0), -math.sin(2.0)],
                                    [math.sin(2.0), math.cos(2.0)]], atol=1e-15)
        np.testing.assert_allclose(mat[2:, 2:],
                                   [[math.cos(0.02), -math.sin(0.02)],
                                    [math.sin(0.02), math.cos(0.02)]], atol=1e-15)
        assert np.abs(mat[:2, 2:]).max() == 0.0

    def test_orthogonality(self):
        enc = RotaryEncoder(64)
        for m in (1, 17, 400):
            mat = dense_rotation_matrix(enc, m)
            np.testing.assert_allclose(mat.T @ mat, np.eye(64), atol=1e-12)

    def test_relative_composition(self):
        rng = Rng(7)
        for dim in (2, 4, 64):
            enc = RotaryEncoder(dim)
            for _ in range(20):
                m = rng.randint(513)
                n = m + rng.randint(513)
                composed = dense_rotation_matrix(enc, m).T @ dense_rotation_matrix(enc, n)
                np.testing.assert_allclose(
                    composed, dense_rotation_matrix(enc, n - m), atol=1e-12
                )

    def test_non_integer_position_rejected(self):
        with pytest.raises(ConfigurationError):
            dense_rotation_matrix(RotaryEncoder(4), 1.5)
        with pytest.raises(ConfigurationError):
            dense_rotation_matrix(RotaryEncoder(4), np.array([0.0, 2.0]))

    def test_negative_offset_is_transpose(self):
        enc = RotaryEncoder(8)
        np.testing.assert_array_equal(
            dense_rotation_matrix(enc, -5), dense_rotation_matrix(enc, 5).T
        )

    @pytest.mark.parametrize("dim", [2, 8, 128])
    def test_position_array_stacks_scalar_calls(self, dim):
        enc = RotaryEncoder(dim)
        positions = np.array([[0, 1, -3], [57, 511, 1024]])
        stack = dense_rotation_matrix(enc, positions)
        assert stack.shape == (2, 3, dim, dim)
        expected = np.stack([dense_rotation_matrix(enc, m) for m in positions.ravel()])
        np.testing.assert_array_equal(stack.reshape(6, dim, dim), expected)

    def test_sparse_dense_equivalence(self):
        rng = Rng(8)
        for dim in (2, 4, 16, 64, 128, 256):
            enc = RotaryEncoder(dim)
            x = rng.normal_array((dim,))
            for m in (0, 1, 3, 57, 511, 1024):
                dense = dense_rotation_matrix(enc, m) @ x
                sparse = apply_rotary(enc, x, m)
                assert np.abs(dense - sparse).max() < 1e-12


class TestScores:
    def test_equal_positions_plain_inner_product(self):
        rng = Rng(9)
        enc = RotaryEncoder(8)
        for _ in range(20):
            q, k = rng.normal_array((8,)), rng.normal_array((8,))
            m = rng.randint(100)
            assert abs(rope_score(q, k, m, m, enc) - float(q @ k)) < 1e-12

    def test_2d_known_value(self):
        score = rope_score([1.0, 0.0], [1.0, 0.0], 5, 3, RotaryEncoder(2))
        assert abs(score - math.cos(2.0)) < 1e-15

    def test_shift_invariance(self):
        rng = Rng(10)
        for dim in (2, 4, 64, 128):
            enc = RotaryEncoder(dim)
            for _ in range(100):
                q, k = rng.normal_array((dim,)), rng.normal_array((dim,))
                m, n, s = rng.randint(513), rng.randint(513), rng.randint(513)
                assert abs(
                    rope_score(q, k, m, n, enc) - rope_score(q, k, m + s, n + s, enc)
                ) < 1e-9

    def test_matches_relative_matrix_form(self):
        rng = Rng(11)
        enc = RotaryEncoder(16)
        for _ in range(20):
            q, k = rng.normal_array((16,)), rng.normal_array((16,))
            m, n = rng.randint(64), rng.randint(64)
            direct = rope_score(q, k, m, n, enc)
            relative = float(q @ dense_rotation_matrix(enc, n - m) @ k)
            assert abs(direct - relative) < 1e-12

    def test_wrong_length_rejected(self):
        with pytest.raises(DimensionError):
            rope_score(np.ones(4), np.ones(4), 0, 0, RotaryEncoder(8))
        with pytest.raises(DimensionError):
            rope_score(np.ones((3, 4)), np.ones((3, 8)), 0, 0, RotaryEncoder(8))

    def test_non_integer_positions_rejected(self):
        q = np.ones(4)
        with pytest.raises(ConfigurationError):
            rope_score(q, q, 0.5, 0, RotaryEncoder(4))
        with pytest.raises(ConfigurationError):
            rope_score(q, q, 0, np.array([1.0, 2.0]), RotaryEncoder(4))

    def test_scalar_call_returns_float(self):
        score = rope_score(np.ones(4), np.ones(4), np.int64(3), 1, RotaryEncoder(4))
        assert type(score) is float

    @pytest.mark.parametrize("dim", [2, 4, 64, 128])
    def test_batch_matches_per_row_calls(self, dim):
        rng = Rng(13)
        enc = RotaryEncoder(dim)
        q, k = rng.normal_array((7, dim)), rng.normal_array((7, dim))
        m = np.array([rng.randint(1025) for _ in range(7)])
        n = np.array([rng.randint(1025) for _ in range(7)])
        cases = [
            (m, n, lambda t: (m[t], n[t])),      # one position pair per row
            (m, 5, lambda t: (m[t], 5)),         # scalar n broadcasts
            (0, n, lambda t: (0, n[t])),         # scalar m broadcasts
        ]
        for m_arg, n_arg, pair in cases:
            batch = rope_score(q, k, m_arg, n_arg, enc)
            assert batch.shape == (7,)
            for t in range(7):
                assert abs(batch[t] - rope_score(q[t], k[t], *pair(t), enc)) < 1e-12

    def test_positions_broadcast_against_one_vector_pair(self):
        rng = Rng(14)
        enc = RotaryEncoder(16)
        q, k = rng.normal_array((16,)), rng.normal_array((16,))
        grid = np.arange(0, 9, 2)
        scores = rope_score(q, k, grid[:, None], grid, enc)
        assert scores.shape == (5, 5)
        for i, m in enumerate(grid):
            for j, n in enumerate(grid):
                assert abs(scores[i, j] - rope_score(q, k, int(m), int(n), enc)) < 1e-12


class TestComplexForm:
    def test_unit_same_position(self):
        assert complex_rope_score_2d([1.0, 0.0], [1.0, 0.0], 3, 3, 1.0) == 1.0

    def test_unit_offset_one(self):
        assert abs(complex_rope_score_2d([1.0, 0.0], [1.0, 0.0], 4, 3, 1.0) - COS1) < 1e-15

    def test_reads_pairs_as_complex_numbers(self):
        # Re[(1 + 2i) conj(3 - i)] = Re[1 + 7i] = 1 at equal positions.
        assert complex_rope_score_2d(np.array([1.0, 2.0]), (3.0, -1.0), 5, 5, 0.3) == 1.0

    def test_non_2d_vectors_rejected(self):
        with pytest.raises(DimensionError):
            complex_rope_score_2d(np.ones(4), np.ones(2), 0, 0, 1.0)
        with pytest.raises(DimensionError):
            complex_rope_score_2d(np.ones(2), np.ones((1, 2)), 0, 0, 1.0)

    def test_matches_real_implementation(self):
        rng = Rng(12)
        enc = RotaryEncoder(2)
        theta = float(enc.thetas[0])
        for _ in range(1000):
            q, k = rng.normal_array((2,)), rng.normal_array((2,))
            m, n = rng.randint(513), rng.randint(513)
            real = rope_score(q, k, m, n, enc)
            cplx = complex_rope_score_2d(q, k, m, n, theta)
            assert abs(real - cplx) < 1e-12
