"""Reference position encodings the rotary scheme is compared against.

Three baselines: the fixed sinusoidal table, a trainable absolute
embedding table, and clipped-relative key embeddings. The additive ones
share a tiny protocol (``rows(seq)``) so injection into a sequence is one
call regardless of variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DimensionError, LengthError
from .numerics import Parameter, Rng, Tensor, take_rows

__all__ = [
    "sinusoidal_encoding",
    "SinusoidalTable",
    "LearnedAbsolute",
    "ShawLayout",
    "ShawRelative",
    "shaw_clip",
    "additive_inject",
]


def sinusoidal_encoding(position, dim: int) -> np.ndarray:
    """Interleaved sin/cos vector: entry 2t is sin(k / 10000^(2t/d)),
    entry 2t+1 the matching cos.

    ``position`` is an int k, or an array of positions giving one vector
    per entry, of shape (*position.shape, dim).
    """
    if dim < 2 or dim % 2 != 0:
        raise ConfigurationError(f"sinusoidal dim must be even and >= 2, got {dim}")
    position = np.asarray(position)
    if (position < 0).any():
        raise ConfigurationError(f"position must be non-negative, got {position.min()}")
    t = np.arange(dim // 2, dtype=np.float64)
    angle = np.divide.outer(position, 10000.0 ** (2.0 * t / dim))
    out = np.empty(angle.shape[:-1] + (dim,), dtype=np.float64)
    out[..., 0::2] = np.sin(angle)
    out[..., 1::2] = np.cos(angle)
    return out


class SinusoidalTable:
    """Sinusoidal rows of the most recent sequence length, rebuilt when it changes."""

    def __init__(self, dim: int):
        if dim < 2 or dim % 2 != 0:
            raise ConfigurationError(f"sinusoidal dim must be even and >= 2, got {dim}")
        self.dim = dim
        self._rows: np.ndarray | None = None

    def rows(self, seq: int) -> np.ndarray:
        if self._rows is None or len(self._rows) != seq:
            rows = sinusoidal_encoding(np.arange(seq), self.dim)
            rows.setflags(write=False)
            self._rows = rows
        return self._rows


class LearnedAbsolute:
    """Trainable per-position vectors; hard capacity, no extrapolation."""

    def __init__(self, max_len: int, dim: int, rng: Rng, scale: float = 0.02, dtype=np.float64):
        if max_len < 1:
            raise ConfigurationError(f"max_len must be >= 1, got {max_len}")
        self.max_len = max_len
        self.dim = dim
        self.embeddings = Parameter(
            "pos_embeddings", rng.normal_array((max_len, dim), scale=scale), dtype=dtype
        )

    def rows(self, seq: int) -> Tensor:
        if seq > self.max_len:
            raise LengthError(
                f"sequence length {seq} exceeds learned-position capacity {self.max_len}"
            )
        return take_rows(self.embeddings.tensor, np.arange(seq))


def shaw_clip(m: int, n: int, r_min: int, r_max: int) -> int:
    """Relative distance m - n clipped into [r_min, r_max]."""
    if r_min > r_max:
        raise ConfigurationError(f"r_min {r_min} > r_max {r_max}")
    return max(r_min, min(r_max, m - n))


@dataclass(frozen=True)
class ShawLayout:
    """Where each (query, key) pair of one sequence length finds its bucket.

    Positions are flat: pair (m, n) is ``m * seq + n`` and row m's bucket r
    is ``m * buckets + r``. ``gather`` is the (seq, seq) bucket position of
    every pair. Along a row the bucket index never increases, so each
    bucket present in row m covers one contiguous run of keys: run i starts
    at pair ``run_starts[i]`` and belongs to bucket position
    ``run_buckets[i]``. The runs tile the pairs in order.
    """

    seq: int
    gather: np.ndarray
    run_starts: np.ndarray
    run_buckets: np.ndarray


class ShawRelative:
    """Trainable key-space embeddings indexed by clipped relative distance.

    Only the key path is kept: the score between positions m and n gains
    the term q_m . e[clip(m - n)] before scaling. The value-path term is
    deliberately dropped (see the attention layer). The bucket layout of
    the most recent sequence length is cached, so a training loop at a
    fixed context builds it once.
    """

    def __init__(self, r_min: int, r_max: int, dim: int, rng: Rng,
                 scale: float = 0.02, dtype=np.float64):
        if r_min > r_max:
            raise ConfigurationError(f"r_min {r_min} > r_max {r_max}")
        self.r_min = r_min
        self.r_max = r_max
        self.dim = dim
        self.key_embeddings = Parameter(
            "shaw_key_embeddings",
            rng.normal_array((r_max - r_min + 1, dim), scale=scale),
            dtype=dtype,
        )
        self._layout: ShawLayout | None = None

    @property
    def buckets(self) -> int:
        return self.r_max - self.r_min + 1

    def clip(self, m: int, n: int) -> int:
        return shaw_clip(m, n, self.r_min, self.r_max)

    def index_matrix(self, seq: int) -> np.ndarray:
        """(seq, seq) embedding-row indices for every (query, key) pair."""
        m = np.arange(seq)[:, None]
        n = np.arange(seq)[None, :]
        return np.clip(m - n, self.r_min, self.r_max) - self.r_min

    def layout(self, seq: int) -> ShawLayout:
        """Bucket layout for ``seq`` positions, rebuilt only when seq changes."""
        layout = self._layout
        if layout is not None and layout.seq == seq:
            return layout
        index = self.index_matrix(seq)
        gather = np.arange(seq)[:, None] * self.buckets + index
        run_begins = np.ones((seq, seq), dtype=bool)
        run_begins[:, 1:] = index[:, 1:] != index[:, :-1]
        run_starts = np.flatnonzero(run_begins)
        layout = ShawLayout(seq, gather, run_starts, gather.reshape(-1)[run_starts])
        for arr in (layout.gather, layout.run_starts, layout.run_buckets):
            arr.setflags(write=False)
        self._layout = layout
        return layout


def additive_inject(x: Tensor, encoding) -> Tensor:
    """x_i + p_i over the sequence axis (second-to-last).

    ``encoding`` is a SinusoidalTable, LearnedAbsolute, or anything with
    ``rows(seq)``; constant tables stay off the gradient tape, learned
    tables join it.
    """
    seq = x.data.shape[-2]
    rows = encoding.rows(seq)
    if not isinstance(rows, Tensor):
        rows = Tensor(np.asarray(rows).astype(x.data.dtype, copy=False))
    if rows.data.shape[-1] != x.data.shape[-1]:
        raise DimensionError(
            f"encoding dim {rows.data.shape[-1]} != input dim {x.data.shape[-1]}"
        )
    return x + rows
