"""Byte-level pre-norm transformer over the tape tensors.

Small enough to gradient-check end to end, complete enough that swapping
the position encoding or the attention kernel is a config change. All
randomness comes from the caller's Rng; the same seed builds the same
model bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..attention import (
    POS_ENCODINGS,
    VARIANTS,
    linear_attention,
    rope_linear_attention,
    shaw_score_bias,
    softmax_attention,
)
from ..baselines import LearnedAbsolute, ShawRelative, additive_inject, sinusoidal_encoding
from ..errors import ConfigurationError
from ..numerics import (
    Parameter,
    Rng,
    Tensor,
    cross_entropy,
    ffn,
    linear,
    rmsnorm,
    take_rows,
)
from ..rotary import RotaryEncoder, apply_rotary_rows

__all__ = ["ModelConfig", "ByteLM", "SHAW_CLIP_RADIUS"]

SHAW_CLIP_RADIUS = 16
FFN_MULT = 4
INIT_SCALE = 0.02


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 64
    heads: int = 4
    layers: int = 2
    context_len: int = 128
    attention_variant: str = "softmax"
    pos_encoding: str = "rope"
    precision: int = 32
    vocab: int = 256  # raw bytes; no other value is accepted

    def __post_init__(self):
        if self.d_model < 1 or self.heads < 1 or self.layers < 1:
            raise ConfigurationError("d_model, heads and layers must be positive")
        if self.d_model % self.heads != 0:
            raise ConfigurationError(
                f"d_model {self.d_model} not divisible by heads {self.heads}"
            )
        if self.attention_variant not in VARIANTS:
            raise ConfigurationError(f"unknown attention variant {self.attention_variant!r}")
        if self.pos_encoding not in POS_ENCODINGS:
            raise ConfigurationError(f"unknown position encoding {self.pos_encoding!r}")
        if self.pos_encoding == "rope" and self.head_dim % 2 != 0:
            raise ConfigurationError(
                f"rotary encoding needs an even head_dim, got {self.head_dim}"
            )
        if self.pos_encoding == "sinusoidal" and self.d_model % 2 != 0:
            raise ConfigurationError(
                f"sinusoidal encoding needs an even d_model, got {self.d_model}"
            )
        if self.context_len < 2:
            raise ConfigurationError(f"context_len must be >= 2, got {self.context_len}")
        if self.pos_encoding == "shaw" and self.attention_variant != "softmax":
            raise ConfigurationError(
                "clipped-relative encoding is a score-level term; it needs softmax attention"
            )
        if self.precision not in (32, 64):
            raise ConfigurationError(f"precision must be 32 or 64, got {self.precision}")
        if self.vocab != 256:
            raise ConfigurationError(f"vocab must be 256, one row per byte, got {self.vocab}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads

    @property
    def parameter_count(self) -> int:
        """Floats in the parameters of the ByteLM this config builds."""
        d = self.d_model
        layer = 2 * d + 4 * d * d + 2 * FFN_MULT * d * d  # two gains, q/k/v/o, the ffn
        position = {"learned": self.context_len * d,
                    "shaw": (SHAW_CLIP_RADIUS + 1) * self.head_dim}.get(self.pos_encoding, 0)
        return 2 * self.vocab * d + position + self.layers * layer + d

    def to_text(self) -> str:
        return "".join(f"{f.name}={getattr(self, f.name)}\n" for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ModelConfig":
        kwargs = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            key, value = line.split("=", 1)
            if key in kwargs:
                raise ConfigurationError(f"config key {key!r} is given twice")
            kwargs[key] = int(value) if value.lstrip("-").isdigit() else value
        return cls(**kwargs)


class ByteLM:
    """Pre-norm transformer: attention block and 4x feed-forward per layer."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        self.dtype = np.float64 if config.precision == 64 else np.float32
        d, hd = config.d_model, config.head_dim

        self.rotary = RotaryEncoder(hd) if config.pos_encoding == "rope" else None

        self.params: list[Parameter] = []
        self._matrix("wte", rng, (config.vocab, d))
        self.learned = None
        self.shaw = None
        if config.pos_encoding == "learned":
            self.learned = LearnedAbsolute(config.context_len, d, rng,
                                           scale=INIT_SCALE, dtype=self.dtype)
            self.params.append(self.learned)
        elif config.pos_encoding == "shaw":
            self.shaw = ShawRelative(SHAW_CLIP_RADIUS, hd, rng,
                                     scale=INIT_SCALE, dtype=self.dtype)
            self.params.append(self.shaw)
        for i in range(config.layers):
            self._gain(f"layer{i}.attn_norm", d)
            self._matrix(f"layer{i}.wq", rng, (d, d))
            self._matrix(f"layer{i}.wk", rng, (d, d))
            self._matrix(f"layer{i}.wv", rng, (d, d))
            self._matrix(f"layer{i}.wo", rng, (d, d))
            self._gain(f"layer{i}.ffn_norm", d)
            self._matrix(f"layer{i}.w1", rng, (d, FFN_MULT * d))
            self._matrix(f"layer{i}.w2", rng, (FFN_MULT * d, d))
        self._gain("final_norm", d)
        self._matrix("lm_head", rng, (d, config.vocab))
        self.by_name = {p.name: p for p in self.params}

    def _matrix(self, name: str, rng: Rng, shape) -> None:
        self.params.append(
            Parameter(name, rng.normal_array(shape, scale=INIT_SCALE), dtype=self.dtype)
        )

    def _gain(self, name: str, d: int) -> None:
        self.params.append(Parameter(name, np.ones(d), dtype=self.dtype))

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _p(self, name: str) -> Parameter:
        return self.by_name[name]

    def loss(self, x_tokens: np.ndarray, y_tokens: np.ndarray) -> Tensor:
        """Mean next-byte cross-entropy over a (batch, seq) token block."""
        x_tokens = np.asarray(x_tokens, dtype=np.int64)
        y_tokens = np.asarray(y_tokens, dtype=np.int64)
        if x_tokens.ndim != 2 or x_tokens.shape != y_tokens.shape:
            raise ConfigurationError(
                f"token blocks must be (batch, seq), got {x_tokens.shape} / {y_tokens.shape}"
            )
        cfg = self.config
        seq = x_tokens.shape[1]
        if seq > cfg.context_len:
            raise ConfigurationError(f"sequence {seq} exceeds context {cfg.context_len}")

        h = take_rows(self._p("wte"), x_tokens)
        if cfg.pos_encoding == "sinusoidal":
            # Built per call, not per model: a table for the whole context
            # would let a checkpoint's context_len size an allocation at load.
            h = additive_inject(h, sinusoidal_encoding(np.arange(seq), cfg.d_model))
        elif self.learned is not None:
            h = additive_inject(h, self.learned.rows(seq))

        for i in range(cfg.layers):
            a = rmsnorm(h, self._p(f"layer{i}.attn_norm"))
            q, k, v = (linear(a, self._p(f"layer{i}.w{name}"), split_heads=cfg.heads)
                       for name in "qkv")
            out = self._attend(q, k, v)  # (batch, heads, seq, head_dim)
            h = h + linear(out, self._p(f"layer{i}.wo"), merge_heads=True)

            f = rmsnorm(h, self._p(f"layer{i}.ffn_norm"))
            h = h + ffn(f, self._p(f"layer{i}.w1"), self._p(f"layer{i}.w2"))

        h = rmsnorm(h, self._p("final_norm"))
        return cross_entropy(linear(h, self._p("lm_head")), y_tokens)

    def _attend(self, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        cfg = self.config
        if cfg.attention_variant == "softmax":
            if self.rotary is not None:
                q = apply_rotary_rows(self.rotary, q)
                k = apply_rotary_rows(self.rotary, k)
            relative = None
            if self.shaw is not None:
                relative = shaw_score_bias(q, self.shaw)
            return softmax_attention(q, k, v, causal=True, relative=relative)
        feature_map = "elu" if cfg.attention_variant == "linear-elu" else "softmax-exp"
        if self.rotary is not None:
            return rope_linear_attention(q, k, v, self.rotary, feature_map, causal=True)
        return linear_attention(q, k, v, feature_map, causal=True)
