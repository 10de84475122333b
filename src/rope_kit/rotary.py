"""Rotary position encoding: frequency schedule, rotation operator, scores.

A d-dimensional vector is treated as d/2 planar pairs; position m rotates
pair i by the angle m * theta_i. The operator exists in two equivalent
realizations: an explicit block-diagonal matrix (the reference) and an
elementwise cos/sin combination with a pair swap (the fast path). Scores
of rotated queries and keys depend on positions only through their
difference, which is what the rest of the package verifies and exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError
from .numerics import Tensor, as_array, tape_op

__all__ = [
    "ThetaSchedule",
    "make_schedule",
    "RotaryEncoder",
    "Complex2DPair",
    "rotate_pairs",
    "apply_rotary",
    "apply_rotary_rows",
    "dense_rotation_matrix",
    "rope_score",
    "complex_rope_score_2d",
]

BASE = 10000.0


@dataclass(frozen=True)
class ThetaSchedule:
    """Geometric frequency ladder theta_i = 10000^(-2(i-1)/d), i = 1..d/2."""

    dim: int
    thetas: np.ndarray

    def __post_init__(self):
        if self.dim < 2 or self.dim % 2 != 0:
            raise ConfigurationError(f"rotary dim must be even and >= 2, got {self.dim}")
        if self.thetas.shape != (self.dim // 2,):
            raise ConfigurationError(
                f"schedule needs {self.dim // 2} frequencies, got {self.thetas.shape}"
            )


def make_schedule(dim: int) -> ThetaSchedule:
    pair = np.arange(dim // 2, dtype=np.float64)
    thetas = BASE ** (-2.0 * pair / dim)
    return ThetaSchedule(dim=dim, thetas=thetas)


def rotate_pairs(x: np.ndarray) -> np.ndarray:
    """(x1, x2, x3, x4, ...) -> (-x2, x1, -x4, x3, ...) over the last axis."""
    out = np.empty_like(x)
    out[..., 0::2] = -x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    return out


def _rotate(x: np.ndarray, cos_row: np.ndarray, sin_row: np.ndarray) -> np.ndarray:
    return x * cos_row + rotate_pairs(x) * sin_row


def _integer_positions(positions) -> np.ndarray:
    """``positions`` as an integer array; fractional positions are refused."""
    positions = np.asarray(positions)
    if positions.dtype.kind not in "iu":
        raise ConfigurationError(f"positions must be integers, got dtype {positions.dtype}")
    return positions


def _pair_cos_sin(schedule: ThetaSchedule, positions) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of positions * theta_i, each repeated for both members of its pair."""
    angles = np.multiply.outer(positions, schedule.thetas)
    return np.repeat(np.cos(angles), 2, axis=-1), np.repeat(np.sin(angles), 2, axis=-1)


class RotaryEncoder:
    """The rotation at integer positions as elementwise cos/sin products.

    The rotation at position m is the closed form m * theta_i, so explicit
    positions get their cos/sin computed directly and no table has to
    cover them. ``rows(seq)`` serves a whole sequence 0..seq-1 and keeps
    the pair of the most recent ``seq``, so a training loop at a fixed
    context builds it once.
    """

    def __init__(self, dim: int):
        self.schedule = make_schedule(dim)
        self._rows: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.schedule.dim

    def rows(self, seq: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (seq, dim) cos/sin rows for positions 0..seq-1."""
        if self._rows is None or len(self._rows[0]) != seq:
            cos, sin = _pair_cos_sin(self.schedule, np.arange(seq))
            cos.setflags(write=False)
            sin.setflags(write=False)
            self._rows = cos, sin
        return self._rows


def _shape(x) -> tuple[int, ...]:
    return np.shape(x.data if isinstance(x, Tensor) else x)


def apply_rotary(enc: RotaryEncoder, x, positions):
    """Rotate the last axis of ``x`` (pairs of coordinates) to ``positions``.

    ``positions`` is an int, the position of every vector in ``x``, or a
    non-negative integer array with one entry per row of the
    second-to-last axis: row t goes to ``positions[t]``. Accepts a Tensor
    (joins the gradient tape; the backward pass is the inverse rotation)
    or any array-like (plain numpy in, numpy out). Norms are preserved
    exactly up to rounding.
    """
    positions = _integer_positions(positions)
    rows = _shape(x)[-2:-1]
    if positions.ndim and positions.shape != rows:
        raise DimensionError(f"positions shape {positions.shape} != rows {rows}")
    if (positions < 0).any():
        raise ConfigurationError(f"positions must be non-negative, got {positions.min()}")
    cos, sin = _pair_cos_sin(enc.schedule, positions)
    return _apply_cos_sin(x, cos, sin, enc.dim)


def apply_rotary_rows(enc: RotaryEncoder, x):
    """Rotate row t of the second-to-last axis to position t."""
    shape = _shape(x)
    if len(shape) < 2:
        raise DimensionError(f"apply_rotary_rows needs (..., seq, dim) input, got shape {shape}")
    cos, sin = enc.rows(shape[-2])
    return _apply_cos_sin(x, cos, sin, enc.dim)


def _apply_cos_sin(x, cos, sin, dim: int):
    if isinstance(x, Tensor):
        if x.data.shape[-1] != dim:
            raise DimensionError(f"last dim {x.data.shape[-1]} != rotary dim {dim}")
        cos = cos.astype(x.data.dtype, copy=False)
        sin = sin.astype(x.data.dtype, copy=False)
        data = _rotate(x.data, cos, sin)

        def grad_fn(g):
            return (_rotate(g, cos, -sin),)

        return tape_op(data, (x,), grad_fn, name="apply_rotary")
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != dim:
        raise DimensionError(f"last dim {arr.shape[-1]} != rotary dim {dim}")
    return _rotate(arr, cos, sin)


def dense_rotation_matrix(schedule: ThetaSchedule, m) -> np.ndarray:
    """The explicit block-diagonal rotation matrix at position m.

    Negative m is allowed and equals the transpose of the matrix at -m.
    An integer array m gives the stack of shape (*m.shape, d, d), each
    slice bit-identical to the call at that position.
    """
    d = schedule.dim
    angles = np.multiply.outer(_integer_positions(m), schedule.thetas)
    mat = np.zeros(angles.shape[:-1] + (d, d), dtype=np.float64)
    cos, sin = np.cos(angles), np.sin(angles)
    idx = np.arange(d // 2)
    mat[..., 2 * idx, 2 * idx] = cos
    mat[..., 2 * idx, 2 * idx + 1] = -sin
    mat[..., 2 * idx + 1, 2 * idx] = sin
    mat[..., 2 * idx + 1, 2 * idx + 1] = cos
    return mat


def rope_score(q, k, m, n, schedule: ThetaSchedule):
    """Inner product of q rotated to position m and k rotated to position n.

    Equals q^T R_{n-m} k, so it depends on the positions only through
    n - m (shift invariance). q, k are (..., dim) and m, n ints or integer
    arrays broadcast against (...); a float when the result is a scalar.
    """
    qa, ka = as_array(q), as_array(k)
    if qa.shape[-1:] != (schedule.dim,) or ka.shape[-1:] != (schedule.dim,):
        raise DimensionError(
            f"expected vectors of length {schedule.dim}, got {qa.shape} and {ka.shape}"
        )
    cos_m, sin_m = _pair_cos_sin(schedule, _integer_positions(m))
    cos_n, sin_n = _pair_cos_sin(schedule, _integer_positions(n))
    score = (_rotate(qa, cos_m, sin_m) * _rotate(ka, cos_n, sin_n)).sum(axis=-1)
    return float(score) if score.ndim == 0 else score


@dataclass(frozen=True)
class Complex2DPair:
    """A 2-d real vector (x1, x2) viewed as the complex number x1 + i x2."""

    re: float
    im: float

    @classmethod
    def from_vector(cls, v) -> "Complex2DPair":
        arr = as_array(v)
        if arr.shape != (2,):
            raise DimensionError(f"expected a 2-vector, got shape {arr.shape}")
        return cls(float(arr[0]), float(arr[1]))

    def to_vector(self) -> np.ndarray:
        return np.array([self.re, self.im], dtype=np.float64)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


def complex_rope_score_2d(q: Complex2DPair, k: Complex2DPair, m: int, n: int, theta: float) -> float:
    """Re[q * conj(k) * e^{i (m-n) theta}]: the 2-d score in complex form.

    Agrees with :func:`rope_score` on the real view of the same pair.
    """
    phase = complex(np.cos((m - n) * theta), np.sin((m - n) * theta))
    return (q.to_complex() * k.to_complex().conjugate() * phase).real
