"""Attention kernels: softmax, generalized-similarity, and linear variants.

All kernels take already-projected q/k/v with shape (..., seq, dim);
leading axes (batch, heads) broadcast through untouched. Rotary encoding
rotates q and k before the score product and never touches v; additive
encodings are injected upstream of the projections.

Softmax attention scores its queries in blocks of 64 rows; a causal
block reads only the keys up to its last row, so the masked half of the
(seq, seq) scores is never computed, and no (seq, seq) array is built in
the forward or the backward. A relative bias (causal calls only) is a
band of offsets next to the diagonal; each block places it by one
pad-and-reshape skew and gathers it back from dS by its reverse.

The linear variants are evaluated with the associative regrouping (keys
are summed against values first), giving cost linear in sequence length;
the generic :func:`similarity_attention`, which scores each query row
against every key directly, serves as the quadratic reference they are
checked against. The causal numerator is chunkwise: masked quadratic
attention inside chunks of 64 positions plus a running d x d key-value
state between chunks, all in batched matmuls
(O(seq * (64 + d) * d) time, O(seq * (64 + d) + (seq / 64) * d^2) memory
per head). The rotary-linear variant rotates only the numerator's
feature maps and reuses the plain linear denominator via the same code
path, so the two denominators are bit-identical by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import ShawRelative
from .errors import ConfigurationError, DimensionError, NumericError
from .numerics import (
    Tensor, _as_tensor, _check_finite, _row_dot, _row_sum, as_array, elu_plus_one, exp,
    softmax_rows, tape_op,
)
from .rotary import RotaryEncoder, apply_rotary_rows

__all__ = [
    "LinearAttentionParts",
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


# Rows per query block of softmax attention, and positions per chunk of
# the causal linear numerator (see softmax_attention and _linear_core).
_CHUNK = 64

# Read-only (_CHUNK, _CHUNK) bools: _TRIL is True where key position <=
# query position, _FUTURE where it is after. A block or chunk of n
# positions slices the leading (n, n).
_TRIL = np.tril(np.ones((_CHUNK, _CHUNK), dtype=bool))
_FUTURE = ~_TRIL
_TRIL.setflags(write=False)
_FUTURE.setflags(write=False)


def _check_qkv(q: Tensor, k: Tensor, v: Tensor) -> int:
    if q.data.shape != k.data.shape or q.data.shape[:-1] != v.data.shape[:-1]:
        raise DimensionError(
            f"q/k/v shapes disagree: {q.data.shape}, {k.data.shape}, {v.data.shape}"
        )
    return q.data.shape[-2]


def _swap(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


def _skewed(buffer: np.ndarray, r0: int) -> np.ndarray:
    """The memory of a (..., rows, rows + W) buffer read as (..., rows,
    rows + W - 1), so that cell (i, c < W) lands in column i + c, aligned
    with keys [r0 - W + 1, r0 + rows) of query rows [r0, r0 + rows); the
    columns of keys before 0 are left out."""
    lead, (rows, width) = buffer.shape[:-2], buffer.shape[-2:]
    view = buffer.reshape(lead + (-1,))[..., :rows * (width - 1)]
    return view.reshape(lead + (rows, width - 1))[..., max(width - rows - 1 - r0, 0):]


def softmax_attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False,
                      relative: Tensor | None = None) -> Tensor:
    """Scaled dot-product attention with row-normalized weights, one tape op.

    ``relative``, of shape (..., seq, W), adds a causal relative bias to
    the raw q.k scores before 1/sqrt(d) scaling, d being q's last axis:
    score (m, n) gains relative[..., m, m - n] for 0 <= m - n < W, and
    nothing further back. Shaw et al. (2018)'s key term is the case
    :func:`shaw_score_bias`. It needs ``causal=True``; a non-causal call
    with it raises ``ConfigurationError``. Causal masking excludes keys
    after the query position. Rotary encoding is applied to q and k by
    the caller.

    The queries are taken in blocks of 64 rows, as in FlashAttention (Dao
    et al. 2022) but without its online softmax: block [r0, r1) scores
    keys [0, r1) when causal and every key otherwise, so the masked half
    is never computed. Each block's scores, softmax and normalisation
    are computed in place and become its probabilities P; only the
    diagonal block is masked. Non-finite scores or relative biases raise
    ``NumericError``; future positions of a causal call are never scored,
    so only the scores that enter the softmax are checked.

    Each block places its (rows, W) band with Music Transformer's skew
    (Huang et al. 2018): the band, columns reversed, fills the first W
    columns of a zeroed (rows, rows + W) buffer whose memory, read as
    (rows, rows + W - 1), holds row i's band from column i on, aligned
    with the block's last rows + W - 1 keys; the columns before key 0 are
    trimmed. The backward keeps only the P blocks and runs, per block,
    dP = G V^T, dV = P^T G, dS = P * (dP - rowsum(dP * P)) / sqrt(d),
    dQ = dS K, dK = (Q^T dS)^T, summing dK and dV into their key
    prefixes; the same skew read backwards gathers the band of dS, and
    its columns reversed are the band's gradient. No (seq, seq) array is
    built. With seq <= 64 there is one block and the op is the unblocked
    computation, bit for bit.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    seq = _check_qkv(q, k, v)
    parents = (q, k, v)
    if relative is not None:
        relative = _as_tensor(relative)
        rel = relative.data
        if rel.shape[:-1] != q.data.shape[:-1] or rel.shape[-1] < 1:
            raise DimensionError(
                f"relative band shape {rel.shape} is not {q.data.shape[:-1]} + (width,)"
            )
        if not causal:
            raise ConfigurationError("softmax_attention takes a relative bias only when causal")
        _check_finite(rel, "softmax_attention relative band")
        parents += (relative,)
        band = rel.shape[-1]
    scale = 1.0 / math.sqrt(q.data.shape[-1])
    out = np.empty(q.data.shape[:-1] + v.data.shape[-1:], np.result_type(q.data, k.data, v.data))
    blocks = []
    for r0 in range(0, seq, _CHUNK):
        r1 = min(r0 + _CHUNK, seq)
        keys = r1 if causal else seq
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite scores raise below
            probs = q.data[..., r0:r1, :] @ _swap(k.data[..., :keys, :])
            if relative is not None:
                skew = np.zeros(rel.shape[:-2] + (r1 - r0, r1 - r0 + band), rel.dtype)
                skew[..., :band] = rel[..., r0:r1, ::-1]
                probs[..., max(r0 - band + 1, 0):] += _skewed(skew, r0)
            probs *= scale
        _check_finite(probs, "softmax_attention scores")
        if causal:
            np.copyto(probs[..., r0:], -np.inf, where=_FUTURE[:r1 - r0, :r1 - r0])
        probs -= probs.max(axis=-1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= _row_sum(probs)[..., None]
        probs.setflags(write=False)
        np.matmul(probs, v.data[..., :keys, :], out=out[..., r0:r1, :])
        blocks.append(probs)

    def grad_fn(g):
        d_q = np.empty(q.data.shape, np.result_type(g, v.data, k.data))
        d_rel = None if relative is None else np.empty(rel.shape, np.result_type(g, v.data))
        d_k = d_v = None  # made by the last block, which reads every key
        for r0, probs in reversed(list(zip(range(0, seq, _CHUNK), blocks))):
            r1, keys = r0 + probs.shape[-2], probs.shape[-1]
            g_rows = g[..., r0:r1, :]
            d_scores = g_rows @ _swap(v.data[..., :keys, :])
            d_v_keys = _swap(probs) @ g_rows
            d_scores -= _row_dot(d_scores, probs)[..., None]
            d_scores *= probs
            d_scores *= scale
            np.matmul(d_scores, k.data[..., :keys, :], out=d_q[..., r0:r1, :])
            d_k_keys = _swap(_swap(q.data[..., r0:r1, :]) @ d_scores)
            if d_k is None:
                d_k, d_v = d_k_keys, d_v_keys
            else:
                d_k[..., :keys, :] += d_k_keys
                d_v[..., :keys, :] += d_v_keys
            if d_rel is not None:
                skew = np.zeros(d_scores.shape[:-1] + (r1 - r0 + band,), d_scores.dtype)
                _skewed(skew, r0)[...] = d_scores[..., max(r0 - band + 1, 0):]
                d_rel[..., r0:r1, :] = skew[..., :band][..., ::-1]
        return (d_q, d_k, d_v) if d_rel is None else (d_q, d_k, d_v, d_rel)

    return tape_op(out, parents, grad_fn, name="softmax_attention")


def shaw_score_bias(q: Tensor, shaw: ShawRelative) -> Tensor:
    """(..., seq, radius) band q_m . (e_j - e_radius), j < radius, for
    :func:`softmax_attention`'s ``relative``: Shaw et al. (2018)'s key
    term over shaw's rows e_0..e_radius.

    Shaw's bias is q_m . e[min(m - n, radius)], so every key at
    m - n >= radius gets q_m . e_radius. Taking that per-row constant off
    all of row m's scores changes no softmax weight, and it leaves this
    band at offsets below radius and 0 at every key beyond. The forward
    is s = q E^T, then s[..., :-1] - s[..., -1:]; the backward takes
    dS = [g, -sum_j g_j], gq = dS E and gE = dS^T q. No (seq, seq) array
    is built.
    """
    q = _as_tensor(q)
    dim = q.data.shape[-1]
    if dim != shaw.data.shape[-1]:
        raise DimensionError(f"query dim {dim} != relative-embedding dim {shaw.data.shape[-1]}")
    scores = q.data @ shaw.data.T

    def grad_fn(g):
        d_scores = np.concatenate([g, -_row_sum(g)[..., None]], axis=-1)
        return (d_scores @ shaw.data,
                d_scores.reshape(-1, d_scores.shape[-1]).T @ q.data.reshape(-1, dim))

    return tape_op(scores[..., :-1] - scores[..., -1:], (q, shaw), grad_fn,
                   name="shaw_score_bias")


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
    denominator: np.ndarray


def _reverse_cumsum(a: np.ndarray, axis: int) -> np.ndarray:
    return np.flip(np.cumsum(np.flip(a, axis), axis), axis)


def _chunked(a: np.ndarray, chunks: int, size: int) -> np.ndarray:
    """(..., seq, d) as (..., chunks, size, d), zero-padding seq up to chunks * size."""
    pad = chunks * size - a.shape[-2]
    if pad:
        a = np.concatenate([a, np.zeros(a.shape[:-2] + (pad, a.shape[-1]), a.dtype)], axis=-2)
    return a.reshape(a.shape[:-2] + (chunks, size, a.shape[-1]))


def _unchunked(a: np.ndarray, seq: int) -> np.ndarray:
    return a.reshape(a.shape[:-3] + (-1, a.shape[-1]))[..., :seq, :]


def _linear_core(pq_num: Tensor, pk_num: Tensor, pq_den: Tensor, pk_den: Tensor,
                 v: Tensor, causal: bool) -> tuple[Tensor, np.ndarray]:
    """Regrouped linear attention: key-value products are aggregated once.

    Numerator uses (pq_num, pk_num), denominator (pq_den, pk_den); the
    plain variant passes the same tensors twice, the rotary variant
    passes rotated maps for the numerator only. The denominator is a
    running (causal) or full sum of key maps dotted with each query map.

    The causal numerator is computed chunkwise over C = min(64, seq)
    positions, the last chunk zero-padded: inside a chunk it is the
    masked quadratic form tril(Q K^T) V, and each chunk adds Q S, S
    being the exclusive prefix sum of the earlier chunks' K^T V states.
    The backward runs the same matmuls in reverse, with an exclusive
    suffix sum of Q^T G as the state gradient. Per head that costs
    O(seq * C * d + seq * d^2) in batched matmuls and holds
    O(seq * C + seq * d + (seq / C) * d^2) floats; no (seq, d, d)
    array is built. The non-causal numerator is Q (K^T V).
    """
    q, k, vals = pq_num.data, pk_num.data, v.data
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values raise below
        if causal:
            seq = q.shape[-2]
            size = min(_CHUNK, seq)
            chunks = -(-seq // _CHUNK)
            q, k, vals = (_chunked(a, chunks, size) for a in (q, k, vals))
            mask = _TRIL[:size, :size]
            scores = (q @ _swap(k)) * mask
            states = _swap(k) @ vals
            prefix = np.zeros_like(states)
            prefix[..., 1:, :, :] = np.cumsum(states[..., :-1, :, :], axis=-3)
            num = _unchunked(scores @ vals + q @ prefix, seq)
            z = np.cumsum(pk_den.data, axis=-2)
            den = np.einsum("...td,...td->...t", pq_den.data, z)
        else:
            kv = _swap(k) @ vals
            num = q @ kv
            z = pk_den.data.sum(axis=-2)
            den = np.einsum("...td,...d->...t", pq_den.data, z)
    _check_finite(den, "linear_attention denominator")
    _check_finite(num, "linear_attention numerator")
    if not (den > 0).all():
        raise NumericError("linear attention denominator is not strictly positive")
    out_data = num / den[..., None]

    def grad_fn(g):
        g_num = g / den[..., None]
        g_den = -_row_dot(g, out_data) / den
        if causal:
            g_num = _chunked(g_num, chunks, size)
            d_scores = (g_num @ _swap(vals)) * mask
            d_states = _swap(q) @ g_num
            suffix = np.zeros_like(d_states)
            suffix[..., :-1, :, :] = _reverse_cumsum(d_states[..., 1:, :, :], axis=-3)
            d_pq_num = _unchunked(d_scores @ k + g_num @ _swap(prefix), seq)
            d_pk_num = _unchunked(_swap(d_scores) @ q + vals @ _swap(suffix), seq)
            d_v = _unchunked(_swap(scores) @ g_num + k @ suffix, seq)
            d_pq_den = g_den[..., None] * z
            d_pk_den = _reverse_cumsum(g_den[..., None] * pq_den.data, axis=-2)
        else:
            d_pq_num = g_num @ _swap(kv)
            d_kv = _swap(q) @ g_num
            d_pk_num = vals @ _swap(d_kv)
            d_v = k @ d_kv
            d_pq_den = g_den[..., None] * z[..., None, :]
            row = np.einsum("...t,...td->...d", g_den, pq_den.data)
            d_pk_den = np.broadcast_to(row[..., None, :], pk_den.data.shape).copy()
        return d_pq_num, d_pk_num, d_pq_den, d_pk_den, d_v

    out = tape_op(out_data, (pq_num, pk_num, pq_den, pk_den, v), grad_fn,
                  name="linear_attention")
    return out, den


def linear_attention_parts(q: Tensor, k: Tensor, v: Tensor, feature_map: str = "elu",
                           causal: bool = False) -> LinearAttentionParts:
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_qkv(q, k, v)
    phi, varphi = feature_map_pair(feature_map)
    pq, pk = phi(q), varphi(k)
    out, den = _linear_core(pq, pk, pq, pk, v, causal)
    return LinearAttentionParts(output=out, denominator=den)


def linear_attention(q: Tensor, k: Tensor, v: Tensor, feature_map: str = "elu",
                     causal: bool = False) -> Tensor:
    """Feature-mapped attention, linear in sequence length.

    Weights are phi(q_m).varphi(k_n) normalized by their row sum; the
    strictly positive feature maps make the normalizer nonzero.
    """
    return linear_attention_parts(q, k, v, feature_map, causal).output


def rope_linear_attention_parts(q: Tensor, k: Tensor, v: Tensor, encoder: RotaryEncoder,
                                feature_map: str = "elu",
                                causal: bool = False) -> LinearAttentionParts:
    """Parts of :func:`rope_linear_attention`; row t sits at position t."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    _check_qkv(q, k, v)
    phi, varphi = feature_map_pair(feature_map)
    pq, pk = phi(q), varphi(k)
    pq_rot, pk_rot = apply_rotary_rows(encoder, pq), apply_rotary_rows(encoder, pk)
    out, den = _linear_core(pq_rot, pk_rot, pq, pk, v, causal)
    return LinearAttentionParts(output=out, denominator=den)


def rope_linear_attention(q: Tensor, k: Tensor, v: Tensor, encoder: RotaryEncoder,
                          feature_map: str = "elu", causal: bool = False) -> Tensor:
    """Linear attention with rotated feature maps in the numerator only.

    The denominator stays unrotated (the plain linear one, same code
    path), so normalization cannot divide by zero even though individual
    numerator weights may be negative.
    """
    return rope_linear_attention_parts(q, k, v, encoder, feature_map, causal).output


def rope_weight_sign_stats(q, k, encoder: RotaryEncoder) -> dict:
    """Sign census of the rotary-linear numerator weights under the elu
    feature map, over every (query, key) pair (reported, never asserted:
    negative weights are expected and allowed)."""
    qa, ka = as_array(q), as_array(k)
    if qa.ndim != 2 or ka.shape != qa.shape:
        raise DimensionError(f"expected (seq, dim) inputs, got {qa.shape} and {ka.shape}")
    pq = apply_rotary_rows(encoder, elu_plus_one(Tensor(qa)).data)
    pk = apply_rotary_rows(encoder, elu_plus_one(Tensor(ka)).data)
    weights = pq @ pk.T
    return {
        "weights": int(weights.size),
        "negative_fraction": float((weights < 0).mean()),
        "min_weight": float(weights.min()),
    }


def similarity_attention(q, k, v, sim) -> Tensor:
    """Generic normalized attention for an arbitrary similarity function.

    Direct O(seq^2) scores, one query row at a time; serves as the
    reference the factored variants are compared against. ``sim(q_m, k)``
    returns the (seq,) similarities of query row m to every key row; they
    must be non-negative, and a row of all-zero similarities cannot be
    normalized.
    """
    qa, ka, va = as_array(q), as_array(k), as_array(v)
    if qa.ndim != 2 or ka.shape != qa.shape or va.shape[0] != qa.shape[0]:
        raise DimensionError(
            f"expected (seq, dim) inputs, got {qa.shape}, {ka.shape}, {va.shape}"
        )
    seq = qa.shape[0]
    scores = np.empty((seq, seq), dtype=np.float64)
    for m in range(seq):
        row = np.asarray(sim(qa[m], ka), dtype=np.float64)
        if row.shape != (seq,):
            raise DimensionError(f"sim returned shape {row.shape} for {seq} keys")
        scores[m] = row
    if (scores < 0).any():
        raise NumericError("similarity function returned a negative value")
    row_sums = scores.sum(axis=1)
    if (row_sums == 0).any():
        raise NumericError("similarity row sums to zero; cannot normalize")
    return Tensor(scores @ va / row_sums[:, None])
