"""Rotary position encoding: frequency schedule, rotation operator, scores.

A d-dimensional vector is treated as d/2 planar pairs; position m rotates
pair i by the angle m * theta_i. The operator exists in two equivalent
realizations: an explicit block-diagonal matrix (the reference) and an
elementwise cos/sin combination with a pair swap (the fast path). Scores
of rotated queries and keys depend on positions only through their
difference, which is what the rest of the package verifies and exploits.
"""

from __future__ import annotations

import threading
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
    if dim < 2 or dim % 2 != 0:
        raise ConfigurationError(f"rotary dim must be even and >= 2, got {dim}")
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


def _pair_cos_sin(angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos/sin of each angle, repeated for both members of its pair."""
    return np.repeat(np.cos(angles), 2, axis=-1), np.repeat(np.sin(angles), 2, axis=-1)


class RotaryEncoder:
    """Cached cos/sin tables for applying the rotation at integer positions.

    Row m holds cos(m * theta_i) and sin(m * theta_i), each value repeated
    for both members of its pair, so application is two elementwise
    multiplies and an add. The cache doubles on demand; existing rows are
    carried over bytewise, and the table reference is swapped atomically
    so concurrent readers see either the old or the new horizon.
    """

    def __init__(self, dim: int, max_pos: int = 64):
        self.schedule = make_schedule(dim)
        self._lock = threading.Lock()
        self._tables = self._build(max(max_pos, 1))

    @property
    def dim(self) -> int:
        return self.schedule.dim

    @property
    def max_pos(self) -> int:
        return self._tables[0].shape[0]

    def _build(self, max_pos: int, start: int = 0, carry=None):
        positions = np.arange(start, max_pos, dtype=np.float64)
        cos, sin = _pair_cos_sin(positions[:, None] * self.schedule.thetas[None, :])
        if carry is not None:
            cos = np.concatenate([carry[0], cos], axis=0)
            sin = np.concatenate([carry[1], sin], axis=0)
        cos.setflags(write=False)
        sin.setflags(write=False)
        return cos, sin

    def tables(self, upto: int) -> tuple[np.ndarray, np.ndarray]:
        """cos/sin tables covering positions 0..upto inclusive."""
        if upto < 0:
            raise ConfigurationError(f"position must be non-negative, got {upto}")
        tables = self._tables
        if upto < tables[0].shape[0]:
            return tables
        with self._lock:
            tables = self._tables
            if upto >= tables[0].shape[0]:
                grown = tables[0].shape[0]
                while grown <= upto:
                    grown *= 2
                self._tables = self._build(grown, start=tables[0].shape[0], carry=tables)
            return self._tables


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
    positions = np.asarray(positions)
    if positions.dtype.kind not in "iu":
        raise ConfigurationError(f"positions must be integers, got dtype {positions.dtype}")
    rows = _shape(x)[-2:-1]
    if positions.ndim and positions.shape != rows:
        raise DimensionError(f"positions shape {positions.shape} != rows {rows}")
    if (positions < 0).any():
        raise ConfigurationError(f"positions must be non-negative, got {positions.min()}")
    cos, sin = enc.tables(int(positions.max(initial=0)))
    return _apply_tables(x, cos[positions], sin[positions], enc.dim)


def apply_rotary_rows(enc: RotaryEncoder, x):
    """Rotate row t of the second-to-last axis to position t."""
    shape = _shape(x)
    if len(shape) < 2:
        raise DimensionError(f"apply_rotary_rows needs (..., seq, dim) input, got shape {shape}")
    seq = shape[-2]
    cos, sin = enc.tables(seq - 1)
    return _apply_tables(x, cos[:seq], sin[:seq], enc.dim)


def _apply_tables(x, cos, sin, dim: int):
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
    angles = np.multiply.outer(m, schedule.thetas)
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
    cos_m, sin_m = _pair_cos_sin(np.multiply.outer(m, schedule.thetas))
    cos_n, sin_n = _pair_cos_sin(np.multiply.outer(n, schedule.thetas))
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
