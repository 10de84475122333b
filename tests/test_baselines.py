"""The sinusoidal encoding and the additive injection of position rows."""

import math

import numpy as np
import pytest

from rope_kit.baselines import additive_inject, sinusoidal_encoding
from rope_kit.errors import ConfigurationError, DimensionError
from rope_kit.numerics import Rng, Tensor


class TestSinusoidal:
    def test_position_zero_pattern(self):
        vec = sinusoidal_encoding(0, 8)
        np.testing.assert_array_equal(vec[0::2], 0.0)
        np.testing.assert_array_equal(vec[1::2], 1.0)

    def test_dim2_position1(self):
        np.testing.assert_allclose(
            sinusoidal_encoding(1, 2), [math.sin(1.0), math.cos(1.0)], atol=1e-15
        )

    def test_dim4_position3_second_pair(self):
        vec = sinusoidal_encoding(3, 4)
        np.testing.assert_allclose(vec[2], math.sin(0.03), atol=1e-15)
        np.testing.assert_allclose(vec[3], math.cos(0.03), atol=1e-15)
        assert abs(vec[2] - 0.029996) < 1e-6
        assert abs(vec[3] - 0.99955) < 1e-5

    def test_entries_bounded(self):
        for k in (0, 1, 17, 500, 9999):
            vec = sinusoidal_encoding(k, 32)
            assert (np.abs(vec) <= 1.0).all()

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            sinusoidal_encoding(0, 3)
        with pytest.raises(ConfigurationError):
            sinusoidal_encoding(-1, 4)

    def test_position_array_stacks_scalar_calls(self):
        positions = np.array([[0, 3], [19, 250]])
        stack = sinusoidal_encoding(positions, 6)
        assert stack.shape == (2, 2, 6)
        for index, k in np.ndenumerate(positions):
            np.testing.assert_array_equal(stack[index], sinusoidal_encoding(int(k), 6))
        with pytest.raises(ConfigurationError):
            sinusoidal_encoding(np.array([2, -1]), 4)


class TestAdditiveInject:
    def test_zero_encoding_is_identity(self):
        x = Rng(2).normal_array((3, 4))
        np.testing.assert_array_equal(additive_inject(Tensor(x), np.zeros((3, 4))).data, x)

    def test_zero_input_returns_encoding(self):
        rows = sinusoidal_encoding(np.arange(3), 4)
        out = additive_inject(Tensor(np.zeros((3, 4))), rows)
        np.testing.assert_array_equal(out.data, rows)

    def test_rowwise_composition(self):
        x = Rng(3).normal_array((3, 4))
        out = additive_inject(Tensor(x), sinusoidal_encoding(np.arange(3), 4))
        for i in range(3):
            np.testing.assert_allclose(out.data[i], x[i] + sinusoidal_encoding(i, 4), atol=1e-15)

    def test_linear_in_input(self):
        rows = sinusoidal_encoding(np.arange(3), 4)
        x = Rng(4).normal_array((3, 4))
        y = Rng(5).normal_array((3, 4))
        lhs = additive_inject(Tensor(x + y), rows).data + rows
        rhs = additive_inject(Tensor(x), rows).data + additive_inject(Tensor(y), rows).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_broadcast_over_batch(self):
        rows = sinusoidal_encoding(np.arange(3), 4)
        x = Rng(6).normal_array((2, 3, 4))
        out = additive_inject(Tensor(x), rows)
        for b in range(2):
            np.testing.assert_allclose(out.data[b], x[b] + rows, atol=1e-15)

    def test_array_rows_take_the_input_dtype(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32))
        assert additive_inject(x, sinusoidal_encoding(np.arange(3), 4)).data.dtype == np.float32

    def test_array_input_is_coerced(self):
        out = additive_inject(np.ones((2, 3, 4)), np.ones((3, 4)))
        assert isinstance(out, Tensor)
        np.testing.assert_array_equal(out.data, np.full((2, 3, 4), 2.0))

    @pytest.mark.parametrize("shape", [(1, 4), (4, 4), (3, 2), (2, 3, 4)])
    def test_rows_of_another_shape_rejected(self, shape):
        # A (1, dim) row would otherwise broadcast over every position.
        with pytest.raises(DimensionError, match="do not fit"):
            additive_inject(Tensor(np.zeros((2, 3, 4))), np.ones(shape))
