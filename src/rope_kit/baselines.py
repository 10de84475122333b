"""The fixed sinusoidal encoding, and the one way an additive encoding
enters a sequence: as its (seq, dim) rows, through :func:`additive_inject`.

The trainable baselines the rotary scheme is also compared against, a
learned absolute table and Shaw et al.'s clipped-relative key table,
are plain model parameters (``pos_learned`` and ``pos_shaw`` in
``harness.ModelConfig.parameter_shapes``); Shaw's term is scored by
``attention.shaw_score_bias``.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DimensionError
from .numerics import Tensor, _as_tensor, _integer

__all__ = ["sinusoidal_encoding", "additive_inject"]


def sinusoidal_encoding(position, dim: int) -> np.ndarray:
    """Interleaved sin/cos vector: entry 2t is sin(k / 10000^(2t/d)),
    entry 2t+1 the matching cos.

    ``position`` is an int k, or an array of positions giving one vector
    per entry, of shape (*position.shape, dim).
    """
    dim = _integer(dim, "sinusoidal dim")
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


def additive_inject(x: Tensor, rows) -> Tensor:
    """x_i + p_i over the sequence axis (second-to-last).

    ``rows`` holds the (seq, dim) vectors p_i of x's last two axes. An
    array (the sinusoidal rows) stays off the gradient tape; a Tensor
    (the learned rows) joins it.
    """
    x = _as_tensor(x)
    if not isinstance(rows, Tensor):
        rows = Tensor(rows, dtype=x.data.dtype)
    if rows.data.shape != x.data.shape[-2:]:
        raise DimensionError(
            f"position rows of shape {rows.data.shape} do not fit input {x.data.shape}"
        )
    return x + rows
