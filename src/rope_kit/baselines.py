"""Reference position encodings the rotary scheme is compared against.

Three baselines: the fixed sinusoidal table, a trainable absolute
embedding table, and clipped-relative key embeddings for causal
attention (one row per offset 0..radius). The two trainable ones are
``Parameter`` subclasses, so a model registers, trains and checkpoints
them as they are. An additive encoding enters a sequence as its
(seq, dim) rows, through :func:`additive_inject`.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError, LengthError
from .numerics import Parameter, Rng, Tensor, take_rows

__all__ = [
    "sinusoidal_encoding",
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


class LearnedAbsolute(Parameter):
    """Trainable per-position vectors, a (max_len, dim) Parameter named
    ``pos_learned``; hard capacity, no extrapolation."""

    __slots__ = ()

    def __init__(self, max_len: int, dim: int, rng: Rng, scale: float = 0.02, dtype=np.float64):
        if max_len < 1:
            raise ConfigurationError(f"max_len must be >= 1, got {max_len}")
        super().__init__("pos_learned", rng.normal_array((max_len, dim), scale=scale),
                         dtype=dtype)

    def rows(self, seq: int) -> Tensor:
        if seq > len(self.data):
            raise LengthError(
                f"sequence length {seq} exceeds learned-position capacity {len(self.data)}"
            )
        return take_rows(self, np.arange(seq))


class ShawRelative(Parameter):
    """Trainable key-space embeddings indexed by clipped relative distance,
    a (radius + 1, dim) Parameter named ``pos_shaw``.

    Only the key path is kept: the score between positions m and n gains
    the term q_m . e[min(m - n, radius)] before scaling. The value-path
    term is deliberately dropped (see the attention layer). The model is
    causal, so m - n >= 0 and only the offsets 0..radius have rows, as in
    Music Transformer (Huang et al. 2018): row j < radius serves offset j,
    and row radius every offset >= radius.
    """

    __slots__ = ()

    def __init__(self, radius: int, dim: int, rng: Rng,
                 scale: float = 0.02, dtype=np.float64):
        if radius < 1:
            raise ConfigurationError(f"clip radius must be >= 1, got {radius}")
        super().__init__("pos_shaw", rng.normal_array((radius + 1, dim), scale=scale),
                         dtype=dtype)


def additive_inject(x: Tensor, rows) -> Tensor:
    """x_i + p_i over the sequence axis (second-to-last).

    ``rows`` holds the (seq, dim) vectors p_i of x's last two axes. An
    array (the sinusoidal rows) stays off the gradient tape; a Tensor
    (the learned rows) joins it.
    """
    if not isinstance(rows, Tensor):
        rows = Tensor(rows, dtype=x.data.dtype)
    if rows.data.shape != x.data.shape[-2:]:
        raise DimensionError(
            f"position rows of shape {rows.data.shape} do not fit input {x.data.shape}"
        )
    return x + rows
