"""Decay curve, summation-by-parts identity, and the 2-d derivation oracle."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from rope_kit.analysis import (
    DISTANCE_CHUNK,
    AbelCheckReport,
    abel_identity_check,
    abel_single,
    decay_curve,
    derivation_oracle_2d,
    read_decay_csv,
    windowed_means,
    write_decay_csv,
)
from rope_kit.errors import ConfigurationError, DataError
from rope_kit.numerics import Rng
from rope_kit.rotary import RotaryEncoder


def decay_value_reference(dim: int, r: int) -> float:
    """Independent oracle: plain-Python partial sums of the unit phases."""
    thetas = [10000.0 ** (-2.0 * i / dim) for i in range(dim // 2)]
    total = 0.0
    running = 0.0 + 0.0j
    for theta in thetas:
        running += cmath.exp(1j * r * theta)
        total += abs(running)
    return total / (dim // 2)


class TestDecayCurve:
    def test_distance_zero_small_dim(self):
        assert decay_curve(4, 0).values[0] == 1.5

    def test_distance_zero_dim_128(self):
        assert decay_curve(128, 0).values[0] == 32.5

    def test_distance_zero_formula(self):
        for dim in (2, 8, 64, 256):
            assert decay_curve(dim, 0).values[0] == (dim / 2 + 1) / 2

    def test_values_nonnegative(self):
        curve = decay_curve(64, 300)
        assert (curve.values >= 0).all()

    def test_matches_independent_summation(self):
        curve = decay_curve(128, 60)
        for r in (0, 1, 7, 33, 60):
            assert abs(curve.values[r] - decay_value_reference(128, r)) < 1e-10

    def test_chunks_equal_one_expression(self):
        max_distance = 3 * DISTANCE_CHUNK + 5  # four chunks, the last partial
        thetas = RotaryEncoder(128).thetas
        phases = np.exp(1j * np.multiply.outer(np.arange(max_distance + 1), thetas))
        whole = np.abs(np.cumsum(phases, axis=-1)).mean(axis=-1)
        curve = decay_curve(128, max_distance)
        np.testing.assert_array_equal(curve.distances, np.arange(max_distance + 1))
        assert np.array_equal(curve.values, whole)

    def test_memory_does_not_grow_with_distance(self):
        # One expression over all 20 001 distances peaked at 49 MB.
        tracemalloc.start()
        try:
            decay_curve(128, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_windowed_means_strictly_decreasing(self):
        curve = decay_curve(128, 100)
        means = windowed_means(curve)
        assert means.shape == (4,)
        assert (np.diff(means) < 0).all()

    def test_far_tail_below_quarter_of_start(self):
        curve = decay_curve(128, 250)
        tail = curve.values[225:251].mean()
        assert tail < 0.25 * curve.values[0]
        # same statement via the independent oracle
        ref_tail = np.mean([decay_value_reference(128, r) for r in range(225, 251)])
        assert ref_tail < 0.25 * decay_value_reference(128, 0)

    def test_window_needs_enough_points(self):
        with pytest.raises(ConfigurationError):
            windowed_means(decay_curve(8, 10))

    def test_csv_roundtrip(self, tmp_path):
        curve = decay_curve(16, 40)
        path = tmp_path / "decay.csv"
        write_decay_csv(curve, path)
        text = path.read_text().splitlines()
        assert text[0] == "distance,mean_abs_S"
        assert len(text) == 42
        back = read_decay_csv(path)
        np.testing.assert_array_equal(back.distances, curve.distances)
        np.testing.assert_array_equal(back.values, curve.values)

    def test_csv_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("r,value\n0,1.0\n")
        with pytest.raises(DataError):
            read_decay_csv(path)

    def test_csv_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "decay.csv"
        path.write_text("distance,mean_abs_S\n0,1.0\n1,0.5\n\n")
        back = read_decay_csv(path)
        np.testing.assert_array_equal(back.distances, [0, 1])
        np.testing.assert_array_equal(back.values, [1.0, 0.5])

    @pytest.mark.parametrize("row", ["1", "1,0.5,2", "one,0.5", "1,half"])
    def test_csv_malformed_row_names_its_line(self, tmp_path, row):
        path = tmp_path / "decay.csv"
        path.write_text(f"distance,mean_abs_S\n0,1.0\n{row}\n")
        with pytest.raises(DataError, match="decay.csv:3: malformed"):
            read_decay_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_non_finite_value_names_its_line(self, tmp_path, value):
        path = tmp_path / "decay.csv"
        path.write_text(f"distance,mean_abs_S\n0,1.5\n1,{value}\n")
        with pytest.raises(DataError, match="decay.csv:3: malformed"):
            read_decay_csv(path)

    def test_csv_without_rows_names_the_file(self, tmp_path):
        path = tmp_path / "decay.csv"
        path.write_text("distance,mean_abs_S\n\n")
        with pytest.raises(DataError, match="decay.csv: no decay rows"):
            read_decay_csv(path)

    @pytest.mark.parametrize("distances, line", [((0, 0, -3), 3), ((1, 2), 2), ((0, 2), 3),
                                                 ((0, 1, 1), 4)])
    def test_csv_distances_must_count_up_from_zero(self, tmp_path, distances, line):
        path = tmp_path / "decay.csv"
        path.write_text("distance,mean_abs_S\n" + "".join(f"{r},1.0\n" for r in distances))
        with pytest.raises(DataError, match=f"decay.csv:{line}: distance"):
            read_decay_csv(path)


class TestAbelIdentity:
    def test_zero_vectors(self):
        residual, bound_ok, score_residual = abel_single(
            np.zeros(8), np.zeros(8), 5, 2, RotaryEncoder(8)
        )
        assert residual == 0.0
        assert bound_ok
        assert score_residual == 0.0

    def test_single_pair_reduces_to_triviality(self):
        # d = 2: both summation orders are the single term h0 * S1
        rng = Rng(30)
        enc = RotaryEncoder(2)
        for _ in range(50):
            q, k = rng.normal_array((2,)), rng.normal_array((2,))
            residual, bound_ok, score_residual = abel_single(q, k, 9, 4, enc)
            assert residual < 1e-14
            assert bound_ok
            assert score_residual < 1e-12

    def test_pairwise_complex_sum_equals_score(self):
        rng = Rng(31)
        for dim in (4, 64, 128):
            enc = RotaryEncoder(dim)
            for _ in range(50):
                q, k = rng.normal_array((dim,)), rng.normal_array((dim,))
                _, _, score_residual = abel_single(
                    q, k, rng.randint(513), rng.randint(513), enc
                )
                assert score_residual < 1e-10

    def test_batch_matches_per_row_calls(self):
        rng = Rng(35)
        for dim in (2, 4, 64, 128):
            enc = RotaryEncoder(dim)
            q, k = rng.normal_array((9, dim)), rng.normal_array((9, dim))
            m = np.array([rng.randint(513) for _ in range(9)])
            n = np.array([rng.randint(513) for _ in range(9)])
            residual, bound_ok, score_residual = abel_single(q, k, m, n, enc)
            assert residual.shape == bound_ok.shape == score_residual.shape == (9,)
            for t in range(9):
                row = abel_single(q[t], k[t], m[t], n[t], enc)
                assert abs(residual[t] - row[0]) < 1e-12
                assert bound_ok[t] == row[1]
                assert abs(score_residual[t] - row[2]) < 1e-12

    def test_merge_counts_a_batch_per_draw(self):
        report = AbelCheckReport()
        report.merge(np.array([1e-13, 3e-12]), np.array([True, False]), np.array([2e-13, 1e-14]))
        report.merge(np.array([2e-12]), np.array([False]), np.array([5e-13]))
        assert report.trials == 3
        assert report.bound_violations == 2
        assert report.max_identity_residual == 3e-12
        assert report.max_score_residual == 5e-13

    @pytest.mark.parametrize("trials", [1, 249, 250, 251, 600])
    def test_driver_counts_every_draw_across_batches(self, trials):
        report = abel_identity_check(Rng(36), trials=trials, dims=(4, 8))
        assert report.trials == 2 * trials
        assert report.bound_violations == 0

    @pytest.mark.parametrize("trials", [0, -3])
    def test_driver_refuses_no_trials(self, trials):
        with pytest.raises(ConfigurationError):
            abel_identity_check(Rng(36), trials=trials, dims=(4,))

    def test_driver_refuses_no_dims(self):
        with pytest.raises(ConfigurationError):
            abel_identity_check(Rng(36), trials=10, dims=())

    def test_random_draw_driver(self):
        report = abel_identity_check(Rng(32), trials=1000, dims=(4, 64, 128))
        assert report.trials == 3000
        assert report.max_identity_residual < 1e-10
        assert report.bound_violations == 0
        assert report.max_score_residual < 1e-10

    def test_report_merge(self):
        report = AbelCheckReport()
        report.merge(1e-12, True, 1e-13)
        report.merge(5e-11, False, 2e-13)
        assert report.trials == 2
        assert report.max_identity_residual == 5e-11
        assert report.bound_violations == 1


class TestDerivation2D:
    def test_angle_zero_at_origin(self):
        from rope_kit.rotary import dense_rotation_matrix

        enc = RotaryEncoder(2, [1.0])
        np.testing.assert_array_equal(dense_rotation_matrix(enc, 0), np.eye(2))

    def test_angle_accumulates_arithmetically(self):
        from rope_kit.rotary import dense_rotation_matrix

        enc = RotaryEncoder(2, [0.5])
        vec = dense_rotation_matrix(enc, 4) @ np.array([1.0, 0.0])
        angle = math.atan2(vec[1], vec[0])
        assert abs(angle - 2.0) < 1e-12

    def test_norm_independent_of_position(self):
        rng = Rng(33)
        from rope_kit.rotary import dense_rotation_matrix

        w = rng.normal_array((2, 2))
        x = rng.normal_array((2,))
        base = np.linalg.norm(w @ x)
        enc = RotaryEncoder(2, [0.77])
        for m in (1, 3, 7):
            assert abs(np.linalg.norm(dense_rotation_matrix(enc, m) @ w @ x) - base) < 1e-12

    @pytest.mark.parametrize("target", ["rope_score", "dense_rotation_matrix"])
    def test_oracle_checks_the_library_kernels(self, monkeypatch, target):
        from rope_kit import analysis, rotary

        original = getattr(rotary, target)

        # Each fault grows with position, as a wrong rotation would.
        def skewed_score(q, k, m, n, enc):
            return original(q, k, m, n, enc) + 1e-6 * np.asarray(m)

        def skewed_matrix(enc, m):
            return original(rotary.RotaryEncoder(enc.dim, enc.thetas + 1e-6), m)

        replacement = skewed_score if target == "rope_score" else skewed_matrix
        monkeypatch.setattr(analysis, target, replacement)
        report = derivation_oracle_2d(Rng(37), trials=20)
        assert not report.passed

    @pytest.mark.parametrize("trials", [0, -3])
    def test_oracle_refuses_no_trials(self, trials):
        with pytest.raises(ConfigurationError):
            derivation_oracle_2d(Rng(34), trials=trials)

    def test_oracle_passes_on_random_draws(self):
        report = derivation_oracle_2d(Rng(34), trials=1000)
        assert report.passed
        assert report.max_initial_residual < 1e-12
        assert report.max_radial_residual < 1e-12
        assert report.max_angular_residual < 1e-10
        assert report.max_relative_residual < 1e-10
