"""Attention kernels: softmax, generalized-similarity, and linear variants.

All kernels take already-projected q/k/v with shape (..., seq, dim);
leading axes (batch, heads) broadcast through untouched. Rotary encoding
rotates q and k before the score product and never touches v; additive
encodings are injected upstream of the projections.

The linear variants are evaluated with the associative regrouping (keys
are summed against values first), giving cost linear in sequence length;
the generic :func:`similarity_attention` double loop serves as the
quadratic reference they are checked against. The rotary-linear variant
rotates only the numerator's feature maps and reuses the plain linear
denominator via the same code path, so the two denominators are
bit-identical by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import ShawRelative
from .errors import ConfigurationError, DimensionError, NumericError
from .numerics import (
    Tensor, _as_tensor, as_array, elu_plus_one, exp, matmul, softmax_rows, tape_op, transpose,
)
from .rotary import RotaryEncoder, apply_rotary, apply_rotary_rows

__all__ = [
    "AttentionSpec",
    "AttentionOutput",
    "LinearAttentionParts",
    "causal_mask",
    "softmax_attention",
    "shaw_score_bias",
    "linear_attention",
    "linear_attention_parts",
    "rope_linear_attention",
    "rope_linear_attention_parts",
    "rope_weight_sign_stats",
    "similarity_attention",
    "feature_map_pair",
    "VARIANTS",
    "POS_ENCODINGS",
]

VARIANTS = ("softmax", "linear-elu", "linear-softmax")
POS_ENCODINGS = ("rope", "sinusoidal", "learned", "shaw", "none")


@dataclass(frozen=True)
class AttentionSpec:
    heads: int
    head_dim: int
    variant: str = "softmax"
    pos_encoding: str = "none"
    causal: bool = False

    def __post_init__(self):
        if self.heads < 1:
            raise ConfigurationError(f"heads must be >= 1, got {self.heads}")
        if self.head_dim < 1:
            raise ConfigurationError(f"head_dim must be >= 1, got {self.head_dim}")
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown attention variant {self.variant!r}")
        if self.pos_encoding not in POS_ENCODINGS:
            raise ConfigurationError(f"unknown position encoding {self.pos_encoding!r}")
        if self.pos_encoding == "rope" and self.head_dim % 2 != 0:
            raise ConfigurationError(
                f"rotary encoding needs an even head_dim, got {self.head_dim}"
            )


@dataclass
class AttentionOutput:
    output: Tensor
    weights: Tensor | None = None


def causal_mask(seq: int) -> np.ndarray:
    """(seq, seq) bool, True where key position <= query position."""
    return np.tril(np.ones((seq, seq), dtype=bool))


def _check_qkv(q: Tensor, k: Tensor, v: Tensor, head_dim: int | None = None) -> int:
    if q.data.shape != k.data.shape or q.data.shape[:-1] != v.data.shape[:-1]:
        raise DimensionError(
            f"q/k/v shapes disagree: {q.data.shape}, {k.data.shape}, {v.data.shape}"
        )
    if head_dim is not None and q.data.shape[-1] != head_dim:
        raise DimensionError(
            f"vector dim {q.data.shape[-1]} != spec head_dim {head_dim}"
        )
    return q.data.shape[-2]


def softmax_attention(q: Tensor, k: Tensor, v: Tensor, spec: AttentionSpec,
                      score_bias: Tensor | None = None) -> AttentionOutput:
    """Scaled dot-product attention with row-normalized weights.

    ``score_bias`` (shape (..., seq, seq)) is added to the raw q.k scores
    before 1/sqrt(d) scaling; it carries the clipped-relative key term
    when that baseline is active. Causal masking excludes keys after the
    query position.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    seq = _check_qkv(q, k, v, spec.head_dim)
    scores = matmul(q, transpose(k))
    if score_bias is not None:
        scores = scores + score_bias
    scores = scores * (1.0 / np.sqrt(spec.head_dim))
    mask = causal_mask(seq) if spec.causal else None
    weights = softmax_rows(scores, mask=mask)
    return AttentionOutput(output=matmul(weights, v), weights=weights)


def shaw_score_bias(q: Tensor, shaw: ShawRelative) -> Tensor:
    """(..., seq, seq) bias with entry (m, n) = q_m . e[clip(m - n)].

    The R = r_max - r_min + 1 bucket scores q_m . e_r are one product of
    q with the embedding table; each pair then picks its bucket's score.
    The backward sums the incoming gradient over each row's bucket runs
    (contiguous, see :class:`ShawLayout`) into a (..., seq, R) gradient
    and pushes that through the same product. Cost is O(seq * R * d) for
    the products plus one O(seq^2) gather and one O(seq^2) reduction; no
    (seq, seq, d) array is built.
    """
    q = _as_tensor(q)
    seq, dim = q.data.shape[-2], q.data.shape[-1]
    if dim != shaw.dim:
        raise DimensionError(f"query dim {dim} != relative-embedding dim {shaw.dim}")
    emb = shaw.key_embeddings.tensor
    layout = shaw.layout(seq)
    buckets = shaw.buckets
    scores = (q.data @ emb.data.T).reshape(-1, seq * buckets)
    data = np.take(scores, layout.gather, axis=1).reshape(q.data.shape[:-1] + (seq,))

    def grad_fn(g):
        g_runs = np.add.reduceat(g.reshape(-1, seq * seq), layout.run_starts, axis=1)
        g_scores = np.zeros_like(scores)
        g_scores[:, layout.run_buckets] = g_runs
        g_scores = g_scores.reshape(-1, seq, buckets)
        gq = (g_scores @ emb.data).reshape(q.data.shape)
        gemb = g_scores.reshape(-1, buckets).T @ q.data.reshape(-1, dim)
        return gq, gemb

    return tape_op(data, (q, emb), grad_fn, name="shaw_score_bias")


# ---------------------------------------------------------------------------
# Linear attention
# ---------------------------------------------------------------------------


def feature_map_pair(name: str):
    """(phi, varphi) for queries and keys; both outputs strictly positive."""
    if name == "elu":
        return elu_plus_one, elu_plus_one
    if name == "softmax-exp":
        return softmax_rows, exp
    raise ConfigurationError(f"unknown feature map {name!r} (use 'elu' or 'softmax-exp')")


@dataclass
class LinearAttentionParts:
    output: Tensor
    numerator: np.ndarray
    denominator: np.ndarray


def _reverse_cumsum(a: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(a, axis), axis), axis)


def _linear_core(pq_num: Tensor, pk_num: Tensor, pq_den: Tensor, pk_den: Tensor,
                 v: Tensor, causal: bool) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Regrouped linear attention: key-value products are aggregated once.

    Numerator uses (pq_num, pk_num), denominator (pq_den, pk_den); the
    plain variant passes the same tensors twice, the rotary variant
    passes rotated maps for the numerator only. Causal attention keeps
    running prefix sums instead of full sums.
    """
    outer = np.einsum("...td,...te->...tde", pk_num.data, v.data)
    if causal:
        kv = np.cumsum(outer, axis=-3)
        num = np.einsum("...td,...tde->...te", pq_num.data, kv)
        z = np.cumsum(pk_den.data, axis=-2)
        den = np.einsum("...td,...td->...t", pq_den.data, z)
    else:
        kv = outer.sum(axis=-3)
        num = np.einsum("...td,...de->...te", pq_num.data, kv)
        z = pk_den.data.sum(axis=-2)
        den = np.einsum("...td,...d->...t", pq_den.data, z)
    if not (den > 0).all():
        raise NumericError("linear attention denominator is not strictly positive")
    out_data = num / den[..., None]

    def grad_fn(g):
        g_num = g / den[..., None]
        g_den = -(g * out_data).sum(axis=-1) / den
        if causal:
            d_pq_num = np.einsum("...te,...tde->...td", g_num, kv)
            d_kv = np.einsum("...td,...te->...tde", pq_num.data, g_num)
            tail = _reverse_cumsum(d_kv, axis=-3)
            d_pk_num = np.einsum("...tde,...te->...td", tail, v.data)
            d_v = np.einsum("...tde,...td->...te", tail, pk_num.data)
            d_pq_den = g_den[..., None] * z
            d_pk_den = _reverse_cumsum(g_den[..., None] * pq_den.data, axis=-2)
        else:
            d_pq_num = np.einsum("...te,...de->...td", g_num, kv)
            d_kv = np.einsum("...td,...te->...de", pq_num.data, g_num)
            d_pk_num = np.einsum("...de,...te->...td", d_kv, v.data)
            d_v = np.einsum("...de,...td->...te", d_kv, pk_num.data)
            d_pq_den = g_den[..., None] * z[..., None, :]
            row = np.einsum("...t,...td->...d", g_den, pq_den.data)
            d_pk_den = np.broadcast_to(row[..., None, :], pk_den.data.shape).copy()
        return d_pq_num, d_pk_num, d_pq_den, d_pk_den, d_v

    out = tape_op(out_data, (pq_num, pk_num, pq_den, pk_den, v), grad_fn,
                  name="linear_attention")
    return out, num, den


def linear_attention_parts(q: Tensor, k: Tensor, v: Tensor, feature_map: str = "elu",
                           causal: bool = False) -> LinearAttentionParts:
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_qkv(q, k, v)
    phi, varphi = feature_map_pair(feature_map)
    pq, pk = phi(q), varphi(k)
    out, num, den = _linear_core(pq, pk, pq, pk, v, causal)
    return LinearAttentionParts(output=out, numerator=num, denominator=den)


def linear_attention(q: Tensor, k: Tensor, v: Tensor, feature_map: str = "elu",
                     causal: bool = False) -> Tensor:
    """Feature-mapped attention, linear in sequence length.

    Weights are phi(q_m).varphi(k_n) normalized by their row sum; the
    strictly positive feature maps make the normalizer nonzero.
    """
    return linear_attention_parts(q, k, v, feature_map, causal).output


def rope_linear_attention_parts(q: Tensor, k: Tensor, v: Tensor, encoder: RotaryEncoder,
                                feature_map: str = "elu", causal: bool = False,
                                positions: np.ndarray | None = None) -> LinearAttentionParts:
    """Parts of :func:`rope_linear_attention`; row t sits at position t
    unless ``positions`` gives one position per row."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_qkv(q, k, v)
    phi, varphi = feature_map_pair(feature_map)
    pq, pk = phi(q), varphi(k)
    if positions is None:
        pq_rot, pk_rot = apply_rotary_rows(encoder, pq), apply_rotary_rows(encoder, pk)
    else:
        pq_rot, pk_rot = apply_rotary(encoder, pq, positions), apply_rotary(encoder, pk, positions)
    out, num, den = _linear_core(pq_rot, pk_rot, pq, pk, v, causal)
    return LinearAttentionParts(output=out, numerator=num, denominator=den)


def rope_linear_attention(q: Tensor, k: Tensor, v: Tensor, encoder: RotaryEncoder,
                          feature_map: str = "elu", causal: bool = False,
                          positions: np.ndarray | None = None) -> Tensor:
    """Linear attention with rotated feature maps in the numerator only.

    The denominator stays unrotated (the plain linear one, same code
    path), so normalization cannot divide by zero even though individual
    numerator weights may be negative.
    """
    return rope_linear_attention_parts(
        q, k, v, encoder, feature_map, causal, positions
    ).output


def rope_weight_sign_stats(q, k, encoder: RotaryEncoder, feature_map: str = "elu",
                           causal: bool = False) -> dict:
    """Sign census of the rotary-linear numerator weights (reported, never
    asserted: negative weights are expected and allowed)."""
    qa, ka = as_array(q), as_array(k)
    if qa.ndim != 2 or ka.shape != qa.shape:
        raise DimensionError(f"expected (seq, dim) inputs, got {qa.shape} and {ka.shape}")
    seq = qa.shape[0]
    phi, varphi = feature_map_pair(feature_map)
    pq = apply_rotary_rows(encoder, phi(Tensor(qa)).data)
    pk = apply_rotary_rows(encoder, varphi(Tensor(ka)).data)
    weights = pq @ pk.T
    if causal:
        weights = weights[causal_mask(seq)]
    else:
        weights = weights.ravel()
    return {
        "weights": int(weights.size),
        "negative_fraction": float((weights < 0).mean()),
        "min_weight": float(weights.min()),
    }


def similarity_attention(q, k, v, sim) -> Tensor:
    """Generic normalized attention for an arbitrary similarity function.

    Direct O(seq^2) double loop; serves as the reference the factored
    variants are compared against. ``sim(q_m, k_n)`` must be
    non-negative; a row of all-zero similarities cannot be normalized.
    """
    qa, ka, va = as_array(q), as_array(k), as_array(v)
    if qa.ndim != 2 or ka.shape != qa.shape or va.shape[0] != qa.shape[0]:
        raise DimensionError(
            f"expected (seq, dim) inputs, got {qa.shape}, {ka.shape}, {va.shape}"
        )
    seq = qa.shape[0]
    scores = np.empty((seq, seq), dtype=np.float64)
    for m in range(seq):
        for n in range(seq):
            scores[m, n] = sim(qa[m], ka[n])
    if (scores < 0).any():
        raise NumericError("similarity function returned a negative value")
    row_sums = scores.sum(axis=1)
    if (row_sums == 0).any():
        raise NumericError("similarity row sums to zero; cannot normalize")
    return Tensor(scores @ va / row_sums[:, None])
