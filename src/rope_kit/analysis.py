"""Executable checks of the rotary scheme's mathematical claims.

Three families:

* the long-term decay curve: the mean magnitude of the partial phase
  sums falls off as relative distance grows, which bounds rotated-score
  magnitudes at long range;
* the summation-by-parts (Abel) identity and the resulting score bound,
  verified on random draws (any violation is an implementation bug, not
  an unlucky sample);
* the 2-d constructive derivation: rotated projections keep their norm,
  advance their angle arithmetically with position, and produce scores
  that depend on positions only through their difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError
from .numerics import Rng, _integer
from .rotary import RotaryEncoder, apply_rotary, rope_score

__all__ = [
    "DecayCurve",
    "DISTANCE_CHUNK",
    "decay_curve",
    "windowed_means",
    "write_decay_csv",
    "read_decay_csv",
    "AbelCheckReport",
    "abel_single",
    "abel_identity_check",
    "Derivation2DReport",
    "derivation_oracle_2d",
    "TRIAL_CHUNK",
    "trial_chunks",
]

DECAY_CSV_HEADER = "distance,mean_abs_S"
# Residual bounds of Derivation2DReport.passed, one per claim.
DERIVATION_TOLERANCES = {"initial": 1e-12, "radial": 1e-12, "angular": 1e-10, "relative": 1e-10}

# Random-draw checks run their trials in batches of at most this many, so
# their memory does not grow with the trial count.
TRIAL_CHUNK = 250
# The decay curve is computed this many distances at a time: about 2.5 MB
# of temporaries at dim 128.
DISTANCE_CHUNK = 1024


def trial_chunks(trials: int) -> list[int]:
    """Batch sizes that add up to ``trials`` (>= 1), each at most TRIAL_CHUNK."""
    trials = _integer(trials, "trials")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    return [min(TRIAL_CHUNK, trials - start) for start in range(0, trials, TRIAL_CHUNK)]


# ---------------------------------------------------------------------------
# Long-term decay curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayCurve:
    """Mean |S_j(r)| against relative distance r = 0, 1, 2, ...

    S_j(r) is the partial sum of the first j unit phases e^{i r theta};
    the value stored for r averages |S_j(r)| over j = 1..d/2, for the
    dimension d the curve was built for. At r = 0 every phase is exactly
    1, so the value is (d/2 + 1) / 2.
    """

    distances: np.ndarray
    values: np.ndarray


def decay_curve(dim: int, max_distance: int) -> DecayCurve:
    """The curve over r = 0..max_distance, DISTANCE_CHUNK distances at a
    time, so its memory does not grow with ``max_distance``."""
    max_distance = _integer(max_distance, "max_distance")
    if max_distance < 0:
        raise ConfigurationError(f"max_distance must be >= 0, got {max_distance}")
    thetas = RotaryEncoder(dim).thetas
    distances = np.arange(max_distance + 1)
    values = np.empty(max_distance + 1)
    for start in range(0, max_distance + 1, DISTANCE_CHUNK):
        chunk = slice(start, start + DISTANCE_CHUNK)
        phases = np.exp(1j * np.multiply.outer(distances[chunk], thetas))
        values[chunk] = np.abs(np.cumsum(phases, axis=-1)).mean(axis=-1)
    return DecayCurve(distances=distances, values=values)


def windowed_means(curve: DecayCurve) -> np.ndarray:
    """Means of 4 consecutive non-overlapping windows of 25 distances,
    starting at r = 0.

    The raw curve oscillates; windowing turns "it decays" into an
    assertable monotonicity statement.
    """
    if len(curve.values) < 100:
        raise ConfigurationError(f"curve covers {len(curve.values)} distances, need 100")
    return curve.values[:100].reshape(4, 25).mean(axis=1)


def write_decay_csv(curve: DecayCurve, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(DECAY_CSV_HEADER + "\n")
        for r, value in zip(curve.distances, curve.values):
            fh.write(f"{int(r)},{float(value)!r}\n")


def read_decay_csv(path) -> DecayCurve:
    """Parse a curve as :func:`write_decay_csv` writes it: at least one row,
    distances 0, 1, 2, ... in order and every value finite."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != DECAY_CSV_HEADER:
            raise DataError(f"{path}: unexpected decay CSV header {header!r}")
        values = []
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                r, value = line.strip().split(",")
                r, value = int(r), float(value)
                if not math.isfinite(value):  # decay_curve never writes one
                    raise ValueError
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: malformed decay CSV row {line.strip()!r}"
                ) from None
            if r != len(values):
                raise DataError(f"{path}:{lineno}: distance {r} where {len(values)} was due")
            values.append(value)
    if not values:
        raise DataError(f"{path}: no decay rows")
    return DecayCurve(distances=np.arange(len(values)), values=np.array(values))


# ---------------------------------------------------------------------------
# Abel (summation by parts) identity and bound
# ---------------------------------------------------------------------------


@dataclass
class AbelCheckReport:
    trials: int = 0
    max_identity_residual: float = 0.0
    bound_violations: int = 0
    max_score_residual: float = 0.0

    def merge(self, residual, bound_ok, score_residual) -> None:
        """Fold in one draw, or a batch of draws as equal-shaped arrays."""
        self.trials += np.size(bound_ok)
        self.max_identity_residual = max(self.max_identity_residual, float(np.max(residual)))
        self.max_score_residual = max(self.max_score_residual, float(np.max(score_residual)))
        self.bound_violations += np.size(bound_ok) - np.count_nonzero(bound_ok)


def abel_single(q, k, m, n, enc: RotaryEncoder):
    """The summation-by-parts check on one draw, or on a batch of draws.

    The rotated score is the real part of sum_i h_i e^{i (m-n) theta_i}
    with h_i the complex product of the i-th coordinate pairs. Returns
    (identity residual between the two summation orders, whether the
    |sum| <= max|h_{i+1}-h_i| * sum|S_{i+1}| bound holds, and the
    residual against the score computed by rotation). q and k have shape
    (..., dim) and m, n broadcast against the leading shape, as in
    :func:`rope_score`; each result has that leading shape.
    """
    qa = np.asarray(q, dtype=np.float64)
    ka = np.asarray(k, dtype=np.float64)
    hq = qa[..., 0::2] + 1j * qa[..., 1::2]
    hk = ka[..., 0::2] + 1j * ka[..., 1::2]
    h = hq * np.conj(hk)
    phases = np.exp(1j * np.multiply.outer(np.subtract(m, n), enc.thetas))

    total = np.sum(h * phases, axis=-1)
    # S_1..S_half, the partial phase sums (S_0 = 0); h_{half+1} = 0.
    s = np.cumsum(phases, axis=-1)
    h_steps = np.diff(h, append=0.0, axis=-1)
    lhs = np.sum(h * np.diff(s, prepend=0.0, axis=-1), axis=-1)
    rhs = -np.sum(s * h_steps, axis=-1)
    residual = np.abs(lhs - rhs)

    bound = np.max(np.abs(h_steps), axis=-1) * np.sum(np.abs(s), axis=-1)
    bound_ok = np.abs(total) <= bound + 1e-12

    score_residual = np.abs(total.real - rope_score(qa, ka, m, n, enc))
    return residual, bound_ok, score_residual


def abel_identity_check(rng: Rng, trials: int, dims) -> AbelCheckReport:
    """:func:`abel_single` on unit-scale gaussian pairs at positions <= 512,
    drawn TRIAL_CHUNK trials at a time."""
    if not dims:
        raise ConfigurationError("abel_identity_check needs at least one dim")
    report = AbelCheckReport()
    for dim in dims:
        enc = RotaryEncoder(dim)
        for size in trial_chunks(trials):
            q = rng.normal_array((size, dim))
            k = rng.normal_array((size, dim))
            m = rng.randint_array(513, size)
            n = rng.randint_array(513, size)
            report.merge(*abel_single(q, k, m, n, enc))
    return report


# ---------------------------------------------------------------------------
# 2-d derivation oracle
# ---------------------------------------------------------------------------


@dataclass
class Derivation2DReport:
    """Residuals from the 2-d constructive checks, one max per claim."""

    max_initial_residual: float = 0.0      # position 0 acts as identity
    max_radial_residual: float = 0.0       # |f(x, m)| independent of m
    max_angular_residual: float = 0.0      # angle advances by m * theta
    max_relative_residual: float = 0.0     # score depends on n - m only

    @property
    def passed(self) -> bool:
        return all(getattr(self, f"max_{claim}_residual") < tolerance
                   for claim, tolerance in DERIVATION_TOLERANCES.items())


def _wrap_angle(x: np.ndarray) -> np.ndarray:
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def _rotate_trials(enc: RotaryEncoder, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """(len(positions), trials, 2): trial t's 2-vector ``x[t]`` turned by
    pair t of ``enc`` to each position."""
    rows = np.broadcast_to(x.reshape(-1), (len(positions), x.size))
    return apply_rotary(enc, rows, positions).reshape(len(positions), *x.shape)


def derivation_oracle_2d(rng: Rng, trials: int) -> Derivation2DReport:
    """Check the 2-d rotation construction on random projections.

    Draws random 2x2 projections, random inputs, and a random nonzero
    frequency, then verifies: rotating to position 0 changes nothing,
    the modulus never depends on position, the phase grows as m * theta
    (mod 2pi) for m = 0..16, and query/key scores over a position grid
    collapse onto a function of the offset alone. Trials are drawn
    TRIAL_CHUNK at a time. The rotation is block-diagonal, so a chunk's
    trials are the coordinate pairs of one encoder with one theta per
    trial, and one ``apply_rotary`` call rotates every trial to every
    position.
    """
    report = Derivation2DReport()
    positions = np.arange(17)
    grid = np.arange(0, 9, 2)
    for size in trial_chunks(trials):
        # q0 = W_q x_q and k0 = W_k x_k: a random projection of a random input.
        q0, k0 = (np.einsum("tij,tj->ti", rng.normal_array((size, 2, 2)),
                            rng.normal_array((size, 2))) for _ in range(2))
        thetas = np.array([0.1 + 1.9 * rng.uniform() for _ in range(size)])  # nonzero

        enc = RotaryEncoder(2 * size, thetas)
        rotated = _rotate_trials(enc, q0, positions)  # [m, t, xy]; positions[m] == m
        # [t, m, n]: each trial's score is the dot product within its own pair.
        scores = np.einsum("mtc,ntc->tmn", rotated[grid], _rotate_trials(enc, k0, grid))

        z, z0 = rotated[..., 0] + 1j * rotated[..., 1], q0[:, 0] + 1j * q0[:, 1]
        drift = _wrap_angle(np.angle(z) - np.angle(z0) - positions[:, None] * thetas)
        # Each diagonal of the (m, n) grid is one offset n - m.
        spread = max(np.ptp(np.diagonal(scores, offset, 1, 2), axis=1).max()
                     for offset in range(1 - len(grid), len(grid)))
        report.max_initial_residual = max(report.max_initial_residual,
                                          float(np.abs(rotated[0] - q0).max()))
        report.max_radial_residual = max(report.max_radial_residual,
                                         float(np.abs(np.abs(z) - np.abs(z0)).max()))
        report.max_angular_residual = max(report.max_angular_residual,
                                          float(np.abs(drift).max()))
        report.max_relative_residual = max(report.max_relative_residual, float(spread))
    return report
