"""Comparison encodings: sinusoidal, learned absolute, clipped relative."""

import math

import numpy as np
import pytest

from rope_kit.baselines import (
    LearnedAbsolute,
    ShawRelative,
    SinusoidalTable,
    additive_inject,
    sinusoidal_encoding,
)
from rope_kit.errors import ConfigurationError, LengthError
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

    def test_table_matches_function_and_grows(self):
        table = SinusoidalTable(8)
        for seq in (4, 20, 4):
            rows = table.rows(seq)
            assert rows.shape == (seq, 8) and not rows.flags.writeable
            for k in range(seq):
                np.testing.assert_array_equal(rows[k], sinusoidal_encoding(k, 8))

    def test_position_array_stacks_scalar_calls(self):
        positions = np.array([[0, 3], [19, 250]])
        stack = sinusoidal_encoding(positions, 6)
        assert stack.shape == (2, 2, 6)
        for index, k in np.ndenumerate(positions):
            np.testing.assert_array_equal(stack[index], sinusoidal_encoding(int(k), 6))
        with pytest.raises(ConfigurationError):
            sinusoidal_encoding(np.array([2, -1]), 4)


class TestLearnedAbsolute:
    def test_deterministic_init(self):
        a = LearnedAbsolute(8, 4, Rng(42))
        b = LearnedAbsolute(8, 4, Rng(42))
        np.testing.assert_array_equal(a.data, b.data)

    def test_lookup_within_capacity(self):
        enc = LearnedAbsolute(8, 4, Rng(0))
        rows = enc.rows(8)
        np.testing.assert_array_equal(rows.data, enc.data)

    def test_beyond_capacity_rejected(self):
        enc = LearnedAbsolute(8, 4, Rng(0))
        with pytest.raises(LengthError):
            enc.rows(9)


class TestShawClip:
    def test_invalid_range(self):
        # The clip radius is the number of offsets the band holds before
        # the shared far row; a causal band needs at least offset 0.
        for radius in (0, -3):
            with pytest.raises(ConfigurationError, match="radius"):
                ShawRelative(radius, 4, Rng(1))


class TestAdditiveInject:
    def test_zero_encoding_is_identity(self):
        class Zero:
            def rows(self, seq):
                return np.zeros((seq, 4))

        x = Rng(2).normal_array((3, 4))
        np.testing.assert_array_equal(additive_inject(Tensor(x), Zero()).data, x)

    def test_zero_input_returns_encoding(self):
        table = SinusoidalTable(4)
        out = additive_inject(Tensor(np.zeros((3, 4))), table)
        np.testing.assert_array_equal(out.data, table.rows(3))

    def test_rowwise_composition(self):
        table = SinusoidalTable(4)
        x = Rng(3).normal_array((3, 4))
        out = additive_inject(Tensor(x), table)
        for i in range(3):
            np.testing.assert_allclose(out.data[i], x[i] + sinusoidal_encoding(i, 4), atol=1e-15)

    def test_linear_in_input(self):
        table = SinusoidalTable(4)
        x = Rng(4).normal_array((3, 4))
        y = Rng(5).normal_array((3, 4))
        lhs = additive_inject(Tensor(x + y), table).data + table.rows(3)
        rhs = additive_inject(Tensor(x), table).data + additive_inject(Tensor(y), table).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_broadcast_over_batch(self):
        table = SinusoidalTable(4)
        x = Rng(6).normal_array((2, 3, 4))
        out = additive_inject(Tensor(x), table)
        for b in range(2):
            np.testing.assert_allclose(out.data[b], x[b] + table.rows(3), atol=1e-15)
