"""Rotary position encoding: frequency set, rotation operator, scores.

A d-dimensional vector is treated as d/2 planar pairs; position m rotates
pair i by the angle m * theta_i. The operator exists in two equivalent
realizations: an explicit block-diagonal matrix (the reference) and the
paper's complex form, pair i read as one complex number and multiplied
by the phase e^{i m theta_i} (the fast path). Scores of rotated queries
and keys depend on positions only through their difference, which is
what the rest of the package verifies and exploits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError
from .numerics import Tensor, _integer, as_array, tape_op

__all__ = [
    "RotaryEncoder",
    "apply_rotary",
    "apply_rotary_rows",
    "dense_rotation_matrix",
    "rope_score",
    "complex_rope_score_2d",
]

BASE = 10000.0


def _rotate(x: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Each last-axis pair (x_2i, x_2i+1) of ``x``, read as x_2i + i x_2i+1
    at ``x``'s precision, times its phase, viewed back in ``x``'s dtype."""
    if x.strides[-1] != x.itemsize:  # a complex view needs a contiguous last axis
        x = x.copy()
    pairs = x.view(np.complex64 if x.dtype == np.float32 else np.complex128)
    return (pairs * phases.astype(pairs.dtype, copy=False)).view(x.dtype)


def _integer_positions(positions) -> np.ndarray:
    """``positions`` as an integer array; fractional positions are refused."""
    positions = np.asarray(positions)
    if positions.dtype.kind not in "iu":
        raise ConfigurationError(f"positions must be integers, got dtype {positions.dtype}")
    return positions


def _phases(enc: RotaryEncoder, positions) -> np.ndarray:
    """e^{i m theta_i} = cos(m theta_i) + i sin(m theta_i) for each position
    m and frequency theta_i, in complex128."""
    angles = np.multiply.outer(positions, enc.thetas)
    phases = np.empty(angles.shape, np.complex128)
    phases.real = np.cos(angles)
    phases.imag = np.sin(angles)
    return phases


class RotaryEncoder:
    """The rotation R_{Theta,m} of a ``dim``-vector at integer positions m.

    ``thetas`` is the frequency set Theta, one per coordinate pair; by
    default the geometric ladder theta_i = 10000^(-2(i-1)/d), i = 1..d/2.
    Theta has shape (d/2,) and every theta must be finite; the set is
    stored as a read-only float64 array. The rotation at position m is
    the closed form m * theta_i, so explicit positions get their phases
    computed directly and no table has to cover them.
    ``rows(seq)`` serves a whole sequence 0..seq-1 and keeps the phase
    table of the most recent ``seq``, so a training loop at a fixed
    context builds it once.
    """

    def __init__(self, dim: int, thetas=None):
        dim = _integer(dim, "rotary dim")
        if dim < 2 or dim % 2 != 0:
            raise ConfigurationError(f"rotary dim must be even and >= 2, got {dim}")
        if thetas is None:
            thetas = BASE ** (-2.0 * np.arange(dim // 2, dtype=np.float64) / dim)
        thetas = np.array(thetas, dtype=np.float64)
        if thetas.shape != (dim // 2,):
            raise ConfigurationError(f"dim {dim} needs {dim // 2} thetas, got {thetas.shape}")
        if not np.isfinite(thetas).all():
            raise ConfigurationError(f"thetas must be finite, got {thetas}")
        thetas.setflags(write=False)
        self.dim = dim
        self.thetas = thetas
        self._rows: np.ndarray | None = None

    def rows(self, seq: int) -> np.ndarray:
        """Read-only (seq, dim/2) complex128 phases e^{i m theta_i} for
        positions m = 0..seq-1."""
        if self._rows is None or len(self._rows) != seq:
            self._rows = _phases(self, np.arange(seq))
            self._rows.setflags(write=False)
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
    return _apply_phases(x, _phases(enc, positions), enc.dim)


def apply_rotary_rows(enc: RotaryEncoder, x):
    """Rotate row t of the second-to-last axis to position t."""
    shape = _shape(x)
    if len(shape) < 2:
        raise DimensionError(f"apply_rotary_rows needs (..., seq, dim) input, got shape {shape}")
    return _apply_phases(x, enc.rows(shape[-2]), enc.dim)


def _apply_phases(x, phases, dim: int):
    if isinstance(x, Tensor):
        if x.data.shape[-1] != dim:
            raise DimensionError(f"last dim {x.data.shape[-1]} != rotary dim {dim}")
        data = _rotate(x.data, phases)

        def grad_fn(g):
            return (_rotate(g, phases.conj()),)

        return tape_op(data, (x,), grad_fn, name="apply_rotary")
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[-1] != dim:
        raise DimensionError(f"last dim {arr.shape[-1]} != rotary dim {dim}")
    return _rotate(arr, phases)


def dense_rotation_matrix(enc: RotaryEncoder, m) -> np.ndarray:
    """The explicit block-diagonal rotation matrix at position m.

    Negative m is allowed and equals the transpose of the matrix at -m.
    An integer array m gives the stack of shape (*m.shape, d, d), each
    slice bit-identical to the call at that position.
    """
    d = enc.dim
    angles = np.multiply.outer(_integer_positions(m), enc.thetas)
    mat = np.zeros(angles.shape[:-1] + (d, d), dtype=np.float64)
    cos, sin = np.cos(angles), np.sin(angles)
    idx = np.arange(d // 2)
    mat[..., 2 * idx, 2 * idx] = cos
    mat[..., 2 * idx, 2 * idx + 1] = -sin
    mat[..., 2 * idx + 1, 2 * idx] = sin
    mat[..., 2 * idx + 1, 2 * idx + 1] = cos
    return mat


def rope_score(q, k, m, n, enc: RotaryEncoder):
    """Inner product of q rotated to position m and k rotated to position n.

    Equals q^T R_{n-m} k, so it depends on the positions only through
    n - m (shift invariance). q, k are (..., dim) and m, n ints or integer
    arrays broadcast against (...); a float when the result is a scalar.
    """
    qa, ka = as_array(q), as_array(k)
    if qa.shape[-1:] != (enc.dim,) or ka.shape[-1:] != (enc.dim,):
        raise DimensionError(f"expected {enc.dim}-vectors, got shapes {qa.shape} and {ka.shape}")
    score = (_rotate(qa, _phases(enc, _integer_positions(m)))
             * _rotate(ka, _phases(enc, _integer_positions(n)))).sum(axis=-1)
    return float(score) if score.ndim == 0 else score


def complex_rope_score_2d(q, k, m: int, n: int, theta: float) -> float:
    """Re[q * conj(k) * e^{i (m-n) theta}]: the 2-d score in complex form,
    each 2-vector (x1, x2) read as the complex number x1 + i x2.

    Agrees with :func:`rope_score` on the same vectors.
    """
    qa, ka = as_array(q), as_array(k)
    if qa.shape != (2,) or ka.shape != (2,):
        raise DimensionError(f"expected 2-vectors, got shapes {qa.shape} and {ka.shape}")
    phase = complex(np.cos((m - n) * theta), np.sin((m - n) * theta))
    return (complex(qa[0], qa[1]) * complex(ka[0], ka[1]).conjugate() * phase).real
