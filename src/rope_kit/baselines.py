"""Reference position encodings the rotary scheme is compared against.

Three baselines: the fixed sinusoidal table, a trainable absolute
embedding table, and clipped-relative key embeddings for causal
attention (one row per offset 0..radius). The additive ones
share a tiny protocol (``rows(seq)``) so injection into a sequence is one
call regardless of variant.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError, LengthError
from .numerics import Parameter, Rng, Tensor, take_rows

__all__ = [
    "sinusoidal_encoding",
    "SinusoidalTable",
    "LearnedAbsolute",
    "ShawRelative",
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
            "pos_learned", rng.normal_array((max_len, dim), scale=scale), dtype=dtype
        )

    def rows(self, seq: int) -> Tensor:
        if seq > self.max_len:
            raise LengthError(
                f"sequence length {seq} exceeds learned-position capacity {self.max_len}"
            )
        return take_rows(self.embeddings.tensor, np.arange(seq))


class ShawRelative:
    """Trainable key-space embeddings indexed by clipped relative distance.

    Only the key path is kept: the score between positions m and n gains
    the term q_m . e[min(m - n, radius)] before scaling. The value-path
    term is deliberately dropped (see the attention layer). The model is
    causal, so m - n >= 0 and only the offsets 0..radius have rows, as in
    Music Transformer (Huang et al. 2018): row j < radius serves offset j,
    and row radius every offset >= radius.
    """

    def __init__(self, radius: int, dim: int, rng: Rng,
                 scale: float = 0.02, dtype=np.float64):
        if radius < 1:
            raise ConfigurationError(f"clip radius must be >= 1, got {radius}")
        self.dim = dim
        self.key_embeddings = Parameter(
            "pos_shaw", rng.normal_array((radius + 1, dim), scale=scale), dtype=dtype
        )


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
