"""Scoring heads and analytic gradients for the five model kinds.

All heads measure user-item affinity as a squared Euclidean distance between
a (possibly translated) user point and the item point:

* ``cml``      : plain distance, no translation.
* ``lrml``     : translation read from a key/value relation memory addressed
                 by the user-item joint embedding.
* ``adacml``   : translation built as an attention-weighted sum of the
                 user's historical item vectors.
* ``hlr``      : translation built hierarchically: candidate-to-history
                 item relations come from the relation memory, then a user
                 attention module combines them.
* ``hlr++``    : ``hlr`` plus a symmetric item attention module over the
                 candidate item's user history, backed by a second memory.

Single-pair scoring (:func:`score`) is written with the small composable
operations below and is the readable reference. Training runs the positives
and negatives of a chunk of triplets as one stacked forward and backward
pass. Ranking (:func:`candidate_distances`) is one block loop for all five
heads: it scores one user against a block of the candidate matrix Q in
closed form, with no per-candidate context.

Both training and ranking read the memories of ``hlr``/``hlr++`` in the
collapsed array form: a key logit ⟨q_a ⊙ q_b, k_n⟩ equals q_a · (q_b ⊙ k_n),
an attention logit over a relation w M is w · (M p), and an
attention-weighted sum of relations is (Σ_h α_h w_h) M. So no (B, H, d) or
(C, H, d) relation tensor is built anywhere. Training gets the key logits of
a batch from one batched product per side (:func:`_attention_forward`), and
its backward pass gives the memory gradient as two (N, B) @ (B, d) products
(:func:`_attention_backward`). In ranking, the key logits of every (history
item, candidate) pair of a block come from one GEMM. Tests hold the
single-pair, training and ranking paths together.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .datasets import _Rows
from .parameters import (
    ITEM_REL_KEYS,
    ITEM_REL_MEMORIES,
    ITEM_VECS,
    REL_KEYS,
    REL_MEMORIES,
    USER_VECS,
    ParameterStore,
    SparseGradients,
)

_EMPTY = np.empty(0, dtype=np.int64)


class ModelKind(enum.Enum):
    CML = "cml"
    LRML = "lrml"
    ADACML = "adacml"
    HLR = "hlr"
    HLRPP = "hlr++"

    @classmethod
    def parse(cls, text: str) -> "ModelKind":
        norm = text.strip().lower().replace("_", "").replace("-", "")
        aliases = {
            "cml": cls.CML,
            "lrml": cls.LRML,
            "adacml": cls.ADACML,
            "hlr": cls.HLR,
            "hlr++": cls.HLRPP,
            "hlrpp": cls.HLRPP,
            "hlrplusplus": cls.HLRPP,
        }
        try:
            return aliases[norm]
        except KeyError:
            raise ValueError(f"unknown model kind {text!r}; expected one of {[k.value for k in cls]}") from None

    @property
    def uses_memory(self) -> bool:
        return self in (ModelKind.LRML, ModelKind.HLR, ModelKind.HLRPP)

    @property
    def uses_history(self) -> bool:
        return self in (ModelKind.ADACML, ModelKind.HLR, ModelKind.HLRPP)

    @property
    def uses_item_memory(self) -> bool:
        return self is ModelKind.HLRPP


class NonFiniteScoreError(FloatingPointError):
    """A forward pass produced NaN/Inf; identifies the offending instance."""

    def __init__(self, index: int, user: int, item: int):
        super().__init__(f"non-finite distance for instance {index} (user {user}, item {item})")
        self.index = index
        self.user = user
        self.item = item


@dataclass(frozen=True)
class RelationContext:
    """One (user, item) pair plus the attention support sets.

    ``history`` holds train-set items of the user (candidate item excluded,
    capped); ``item_history`` holds train-set users of the item (scored user
    excluded, capped) and is only consumed by the ``hlr++`` head.
    """

    user: int
    item: int
    history: np.ndarray = field(default_factory=lambda: _EMPTY)
    item_history: np.ndarray = field(default_factory=lambda: _EMPTY)


@dataclass
class ScoreBreakdown:
    """Distance plus the intermediate attention traces of one scored pair."""

    distance: float
    relation: np.ndarray
    key_weights: np.ndarray | None = None
    history_weights: np.ndarray | None = None
    item_key_weights: np.ndarray | None = None
    item_history_weights: np.ndarray | None = None


@dataclass
class TripletBatch:
    """One batch of (user, positive, negative) triplets as index arrays.

    Triplet ``i`` scores ``pos[i]`` and ``neg[i]`` for ``users[i]``. Both
    sides read the one user-history row ``hist[i]``; the ``hlr++`` item
    histories ``pos_ihist[i]`` and ``neg_ihist[i]`` differ per side. History
    arrays are zero-padded to the batch's widest row, and only the slots
    their masks set are read. A history a head does not read is None.
    """

    pos: np.ndarray  # (B,)
    neg: np.ndarray  # (B,)
    users: np.ndarray  # (B,)
    hist: np.ndarray | None = None  # (B, H)
    hist_mask: np.ndarray | None = None
    pos_ihist: np.ndarray | None = None  # (B, J)
    pos_ihist_mask: np.ndarray | None = None
    neg_ihist: np.ndarray | None = None  # (B, J)
    neg_ihist_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not len(self.users) == len(self.pos) == len(self.neg):
            raise ValueError("users, positives and negatives must have equal length")

    @classmethod
    def from_contexts(cls, pos: Sequence[RelationContext], neg: Sequence[RelationContext]) -> "TripletBatch":
        """Array batch of hand-built context pairs; ``pos[i]`` and ``neg[i]``
        must share the user and the history."""
        if len(pos) != len(neg):
            raise ValueError("positive and negative context lists must have equal length")
        for p, n in zip(pos, neg):
            if p.user != n.user or not np.array_equal(p.history, n.history):
                raise ValueError(f"contexts of user {p.user} (items {p.item}, {n.item}) do not share the user and history")
        hist, hist_mask = _Rows.of([c.history for c in pos]).padded()
        ihist, ihist_mask = _Rows.of([c.item_history for c in (*pos, *neg)]).padded()
        return cls(
            pos=np.fromiter((c.item for c in pos), dtype=np.int64, count=len(pos)),
            neg=np.fromiter((c.item for c in neg), dtype=np.int64, count=len(neg)),
            users=np.fromiter((c.user for c in pos), dtype=np.int64, count=len(pos)),
            hist=hist,
            hist_mask=hist_mask,
            pos_ihist=ihist[: len(pos)],
            pos_ihist_mask=ihist_mask[: len(pos)],
            neg_ihist=ihist[len(pos) :],
            neg_ihist_mask=ihist_mask[len(pos) :],
        )

    def __len__(self) -> int:
        return len(self.pos)

    def stacked(self, start: int, stop: int) -> "_Stacked":
        """Triplets ``start:stop`` as one stacked pass: positives, then negatives."""
        part = slice(start, stop)

        def both(side: np.ndarray | None) -> np.ndarray | None:
            return None if side is None else np.concatenate([side[part], side[part]])

        def sides(pos: np.ndarray | None, neg: np.ndarray | None) -> np.ndarray | None:
            return None if pos is None or neg is None else np.concatenate([pos[part], neg[part]])

        return _Stacked(
            users=both(self.users),
            items=sides(self.pos, self.neg),
            hist=both(self.hist),
            hist_mask=both(self.hist_mask),
            ihist=sides(self.pos_ihist, self.neg_ihist),
            ihist_mask=sides(self.pos_ihist_mask, self.neg_ihist_mask),
        )


# ---------------------------------------------------------------------------
# Small composable operations
# ---------------------------------------------------------------------------


def stable_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax with max subtraction; cannot overflow for finite input."""
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=axis, keepdims=True)


def _masked_softmax(logits: np.ndarray, mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over the unmasked entries along ``axis``; fully-masked slices yield zeros."""
    guarded = np.where(mask, logits, -np.inf)
    mx = np.max(guarded, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    ex = np.where(mask, np.exp(guarded - mx), 0.0)
    denom = ex.sum(axis=axis, keepdims=True)
    return np.divide(ex, denom, out=np.zeros_like(ex), where=denom > 0)


def _softmax_leading(logits: np.ndarray) -> np.ndarray:
    """In-place max-subtracted softmax over axis 0; returns ``logits``.

    Reducing over the leading axis combines whole contiguous rows, which is
    much cheaper than many short last-axis reductions.
    """
    logits -= logits.max(axis=0)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=0)
    return logits


def joint_embedding(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Elementwise (Hadamard) product of two same-dimension vectors."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    if q1.shape != q2.shape:
        raise ValueError(f"dimension mismatch: {q1.shape} vs {q2.shape}")
    return q1 * q2


def key_attention(s: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Probability weights over relation keys: softmax of the key logits."""
    if keys.shape[1] != s.shape[-1]:
        raise ValueError(f"dimension mismatch: joint embedding {s.shape} vs keys {keys.shape}")
    return stable_softmax(keys @ s)


def relation_vector(weights: np.ndarray, memories: np.ndarray) -> np.ndarray:
    """Convex combination of memory rows under probability ``weights``."""
    return weights @ memories


def item_item_relation(v1: int, v2: int, store: ParameterStore) -> np.ndarray:
    """Latent relation vector between two items; symmetric in (v1, v2)."""
    s = joint_embedding(store.item_vecs[v1], store.item_vecs[v2])
    return relation_vector(key_attention(s, store.rel_keys), store.rel_memories)


def _memory_relations(
    query_rows: np.ndarray, anchor: np.ndarray, keys: np.ndarray, memories: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Relation vectors between ``anchor`` and each row of ``query_rows``.

    Returns (relations (h, d), key weights (h, N)).
    """
    s = anchor[None, :] * query_rows
    w = stable_softmax(s @ keys.T, axis=-1)
    return w @ memories, w


def user_relation(ctx: RelationContext, store: ParameterStore) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User-side translation vector plus its attention trace.

    Builds the candidate-to-history item relations, attends over them with
    the user vector as query, and returns (relation, key_weights (h, N),
    history_weights (h,)). An empty history yields the zero vector (the
    plain-metric fallback).
    """
    dim = store.dim
    if len(ctx.history) == 0:
        return np.zeros(dim), np.zeros((0, store.n_relations)), np.zeros(0)
    rels, key_w = _memory_relations(
        store.item_vecs[ctx.history], store.item_vecs[ctx.item], store.rel_keys, store.rel_memories
    )
    logits = rels @ store.user_vecs[ctx.user]
    alpha = stable_softmax(logits)
    return alpha @ rels, key_w, alpha


def item_relation(ctx: RelationContext, store: ParameterStore) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Item-side translation vector plus its attention trace.

    Symmetric to :func:`user_relation`: user-user relations over the item's
    user history from the second memory, attended with the item vector as
    query. Empty item history yields the zero vector.
    """
    if store.item_rel_keys is None or store.item_rel_memories is None:
        raise ValueError("item-side relation requested but the store has no item memory")
    dim = store.dim
    if len(ctx.item_history) == 0:
        return np.zeros(dim), np.zeros((0, store.n_relations)), np.zeros(0)
    rels, key_w = _memory_relations(
        store.user_vecs[ctx.item_history], store.user_vecs[ctx.user], store.item_rel_keys, store.item_rel_memories
    )
    logits = rels @ store.item_vecs[ctx.item]
    beta = stable_softmax(logits)
    return beta @ rels, key_w, beta


def score(ctx: RelationContext, kind: ModelKind, store: ParameterStore) -> ScoreBreakdown:
    """Score one (user, item) pair: squared distance between the translated
    user point and the item point, with attention traces."""
    pu = store.user_vecs[ctx.user]
    qv = store.item_vecs[ctx.item]
    if pu.shape != qv.shape:
        raise ValueError(f"dimension mismatch: user {pu.shape} vs item {qv.shape}")
    key_w = hist_w = item_key_w = item_hist_w = None
    if kind is ModelKind.CML:
        relation = np.zeros(store.dim)
    elif kind is ModelKind.LRML:
        s = joint_embedding(pu, qv)
        key_w = key_attention(s, store.rel_keys)
        relation = relation_vector(key_w, store.rel_memories)
    elif kind is ModelKind.ADACML:
        if len(ctx.history) == 0:
            relation = np.zeros(store.dim)
            hist_w = np.zeros(0)
        else:
            hist_vecs = store.item_vecs[ctx.history]
            hist_w = stable_softmax(hist_vecs @ qv)
            relation = hist_w @ hist_vecs
    elif kind is ModelKind.HLR:
        relation, key_w, hist_w = user_relation(ctx, store)
    elif kind is ModelKind.HLRPP:
        rel_user, key_w, hist_w = user_relation(ctx, store)
        rel_item, item_key_w, item_hist_w = item_relation(ctx, store)
        relation = rel_user + rel_item
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unhandled model kind {kind}")
    diff = pu + relation - qv
    return ScoreBreakdown(
        distance=float(diff @ diff),
        relation=relation,
        key_weights=key_w,
        history_weights=hist_w,
        item_key_weights=item_key_w,
        item_history_weights=item_hist_w,
    )


def triplet_margin_loss(d_pos: float, d_neg: float, margin: float) -> float:
    """Hinge on the distance gap: max(0, d_pos - d_neg + margin)."""
    return max(0.0, d_pos - d_neg + margin)


# ---------------------------------------------------------------------------
# Stacked (batched) forward/backward
# ---------------------------------------------------------------------------


@dataclass
class _Stacked:
    """Padded index arrays for a batch of contexts."""

    users: np.ndarray  # (B,)
    items: np.ndarray  # (B,)
    hist: np.ndarray | None  # (B, H) padded with 0
    hist_mask: np.ndarray | None  # (B, H)
    ihist: np.ndarray | None  # (B, J) padded with 0
    ihist_mask: np.ndarray | None


def _stack(contexts: Sequence[RelationContext], kind: ModelKind) -> _Stacked:
    users = np.fromiter((c.user for c in contexts), dtype=np.int64, count=len(contexts))
    items = np.fromiter((c.item for c in contexts), dtype=np.int64, count=len(contexts))
    hist = hist_mask = ihist = ihist_mask = None
    if kind.uses_history:
        hist, hist_mask = _Rows.of([c.history for c in contexts]).padded()
    if kind.uses_item_memory:
        ihist, ihist_mask = _Rows.of([c.item_history for c in contexts]).padded()
    return _Stacked(users, items, hist, hist_mask, ihist, ihist_mask)


@dataclass
class _AttentionCache:
    """Intermediates of one memory-attention block (user or item side)."""

    support: np.ndarray  # (B, H) indices into the embedding table
    mask: np.ndarray  # (B, H)
    emb: np.ndarray  # (B, H, d) gathered support embeddings
    anchor: np.ndarray  # (B, d) the vector forming joint embeddings
    anchored_keys: np.ndarray  # (B, N, d) anchor ⊙ keys
    query: np.ndarray  # (B, d) the attention query vector
    read: np.ndarray  # (B, N) M q, the memory rows read by the query
    key_w: np.ndarray  # (B, N, H)
    att_logits: np.ndarray  # (B, H)
    alpha: np.ndarray  # (B, H)
    mixed_w: np.ndarray  # (B, N) Σ_h α_h w_h
    relation: np.ndarray  # (B, d)


def _attention_forward(
    support: np.ndarray,
    mask: np.ndarray,
    table: np.ndarray,
    anchor: np.ndarray,
    query: np.ndarray,
    keys: np.ndarray,
    memories: np.ndarray,
) -> _AttentionCache:
    """Hierarchical relation block: memory relations between ``anchor`` and
    each support row, then attention with ``query``. Shapes: support (B, H),
    anchor/query (B, d).

    The memory read is collapsed: the key logit of support row e_h and slot n
    is e_h · (anchor ⊙ k_n), one batched product; the attention logit of the
    relation w_h M is w_h · (M q); and the relation is (Σ_h α_h w_h) M. So no
    (B, H, d) joint-embedding or relation tensor is formed.
    """
    emb = table[support]  # (B, H, d)
    anchored_keys = anchor[:, None, :] * keys  # (B, N, d)
    # Slots on the middle axis, so the in-place softmax over them reduces
    # whole rows of H entries rather than many short rows of N.
    key_w = anchored_keys @ emb.transpose(0, 2, 1)  # (B, N, H)
    _softmax_leading(key_w.transpose(1, 0, 2))
    read = query @ memories.T  # (B, N)
    att_logits = (read[:, None, :] @ key_w)[:, 0, :]  # (B, H)
    alpha = _masked_softmax(att_logits, mask)
    mixed_w = (key_w @ alpha[:, :, None])[:, :, 0]  # (B, N)
    relation = mixed_w @ memories
    return _AttentionCache(
        support, mask, emb, anchor, anchored_keys, query, read, key_w, att_logits, alpha, mixed_w, relation
    )


def _attention_backward(
    cache: _AttentionCache,
    g_relation: np.ndarray,
    keys: np.ndarray,
    memories: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Backprop one attention block in the collapsed form of the forward.

    Given dL/d(relation) returns (g_query, g_anchor, g_emb (B, H, d),
    g_keys, g_memories); g_emb is zero at masked slots. The memories get
    w̄ᵀ g_relation + ḡwᵀ q, two (N, B) @ (B, d) products. The key-logit
    gradient is key_w ⊙ (ḡ αᵀ + (M q) g_attᵀ − c), a rank-2 batched product
    less a (B, H) term c; one (B, N, d) product of it with the support
    embeddings gives both g_keys and g_anchor.
    """
    g_mixed = g_relation @ memories.T  # (B, N)
    g_alpha = (g_mixed[:, None, :] @ cache.key_w)[:, 0, :]  # (B, H)
    inner = (g_alpha * cache.alpha).sum(axis=1, keepdims=True)
    g_att = cache.alpha * (g_alpha - inner)  # attention-logit gradient (B, H)
    g_read = (cache.key_w @ g_att[:, :, None])[:, :, 0]  # (B, N)
    g_query = g_read @ memories
    g_memories = cache.mixed_w.T @ g_relation + g_read.T @ cache.query
    # dL/dw_h = α_h ḡ + g_att_h (M q), whose product with w_h is
    # α_h g_alpha_h + g_att_h att_logit_h, so the softmax backward needs no
    # (B, N, H) reduction.
    g_key_logits = np.stack([g_mixed, cache.read], axis=2) @ np.stack([cache.alpha, g_att], axis=1)  # (B, N, H)
    g_key_logits -= (cache.alpha * g_alpha + g_att * cache.att_logits)[:, None, :]
    g_key_logits *= cache.key_w
    g_emb = g_key_logits.transpose(0, 2, 1) @ cache.anchored_keys  # (B, H, d)
    g_anchored = g_key_logits @ cache.emb  # (B, N, d)
    g_anchor = np.einsum("bnd,nd->bd", g_anchored, keys)
    g_keys = np.einsum("bnd,bd->nd", g_anchored, cache.anchor)
    return g_query, g_anchor, g_emb, g_keys, g_memories


@dataclass
class _ForwardCache:
    stacked: _Stacked
    pu: np.ndarray
    qv: np.ndarray
    diff: np.ndarray
    distances: np.ndarray
    # lrml
    s: np.ndarray | None = None
    key_w: np.ndarray | None = None
    # adacml
    hist_emb: np.ndarray | None = None
    alpha: np.ndarray | None = None
    # hlr / hlr++
    user_att: _AttentionCache | None = None
    item_att: _AttentionCache | None = None


# Diverging parameters overflow here; callers detect the non-finite distances
# and raise NonFiniteScoreError, so numpy's warnings would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def _forward_stacked(stacked: _Stacked, kind: ModelKind, store: ParameterStore) -> _ForwardCache:
    pu = store.user_vecs[stacked.users]
    qv = store.item_vecs[stacked.items]
    cache = _ForwardCache(stacked, pu, qv, diff=np.empty(0), distances=np.empty(0))
    relation = np.zeros_like(pu)
    if kind is ModelKind.LRML:
        cache.s = pu * qv
        cache.key_w = stable_softmax(cache.s @ store.rel_keys.T, axis=-1)
        relation = cache.key_w @ store.rel_memories
    elif kind is ModelKind.ADACML:
        assert stacked.hist is not None and stacked.hist_mask is not None
        cache.hist_emb = store.item_vecs[stacked.hist]
        logits = (cache.hist_emb @ qv[:, :, None])[:, :, 0]
        cache.alpha = _masked_softmax(logits, stacked.hist_mask)
        relation = (cache.alpha[:, None, :] @ cache.hist_emb)[:, 0, :]
    elif kind in (ModelKind.HLR, ModelKind.HLRPP):
        assert stacked.hist is not None and stacked.hist_mask is not None
        cache.user_att = _attention_forward(
            stacked.hist, stacked.hist_mask, store.item_vecs, anchor=qv, query=pu,
            keys=store.rel_keys, memories=store.rel_memories,
        )
        relation = cache.user_att.relation
        if kind is ModelKind.HLRPP:
            assert stacked.ihist is not None and stacked.ihist_mask is not None
            if store.item_rel_keys is None or store.item_rel_memories is None:
                raise ValueError("hlr++ requires a store initialized with the item memory")
            cache.item_att = _attention_forward(
                stacked.ihist, stacked.ihist_mask, store.user_vecs, anchor=pu, query=qv,
                keys=store.item_rel_keys, memories=store.item_rel_memories,
            )
            relation = relation + cache.item_att.relation
    cache.diff = pu + relation - qv
    cache.distances = np.einsum("bd,bd->b", cache.diff, cache.diff)
    return cache


def _backward_stacked(
    cache: _ForwardCache, kind: ModelKind, store: ParameterStore, coeff: np.ndarray, grads: SparseGradients
) -> None:
    """Accumulate coeff[b] * d(distance_b)/d(params) into ``grads``.

    ``cache`` is a pass of :meth:`TripletBatch.stacked`, whose two halves
    read the same users and user-history rows. So the gradients of those
    rows are summed over the halves first and scattered once; the items and
    the ``hlr++`` item histories differ per half and are scattered whole.
    ``adacml``'s history gradient, α_h ḡ + g_logit_h q per slot and half,
    comes out summed over both halves from one rank-4 batched product
    (half, H, 4) @ (half, 4, d).
    """
    stacked = cache.stacked
    half = len(coeff) // 2

    def shared(per_row: np.ndarray) -> np.ndarray:
        return per_row[:half] + per_row[half:]

    g_diff = (2.0 * coeff)[:, None] * cache.diff
    g_pu = g_diff
    g_qv = -g_diff
    if kind is ModelKind.LRML:
        assert cache.s is not None and cache.key_w is not None
        g_rel = g_diff
        grads.add_dense(REL_MEMORIES, cache.key_w.T @ g_rel)
        g_key_w = g_rel @ store.rel_memories.T
        inner = (g_key_w * cache.key_w).sum(axis=1, keepdims=True)
        g_logits = cache.key_w * (g_key_w - inner)
        grads.add_dense(REL_KEYS, g_logits.T @ cache.s)
        g_s = g_logits @ store.rel_keys
        g_pu = g_pu + g_s * cache.qv
        g_qv = g_qv + g_s * cache.pu
    elif kind is ModelKind.ADACML:
        assert cache.hist_emb is not None and cache.alpha is not None
        g_rel = g_diff
        g_alpha = (cache.hist_emb @ g_rel[:, :, None])[:, :, 0]
        inner = (g_alpha * cache.alpha).sum(axis=1, keepdims=True)
        g_logits = cache.alpha * (g_alpha - inner)
        g_qv = g_qv + (g_logits[:, None, :] @ cache.hist_emb)[:, 0, :]
        weights = np.stack([cache.alpha[:half], g_logits[:half], cache.alpha[half:], g_logits[half:]], axis=2)
        vectors = np.stack([g_rel[:half], cache.qv[:half], g_rel[half:], cache.qv[half:]], axis=1)
        g_hist = weights @ vectors
        mask = stacked.hist_mask[:half]
        grads.add_rows(ITEM_VECS, stacked.hist[:half][mask], g_hist[mask])
    elif kind in (ModelKind.HLR, ModelKind.HLRPP):
        att = cache.user_att
        assert att is not None
        g_query, g_anchor, g_emb, g_keys, g_memories = _attention_backward(
            att, g_diff, store.rel_keys, store.rel_memories
        )
        g_pu = g_pu + g_query
        g_qv = g_qv + g_anchor
        grads.add_dense(REL_KEYS, g_keys)
        grads.add_dense(REL_MEMORIES, g_memories)
        g_emb = shared(g_emb)
        mask = att.mask[:half]
        grads.add_rows(ITEM_VECS, att.support[:half][mask], g_emb[mask])
        if kind is ModelKind.HLRPP:
            iatt = cache.item_att
            assert iatt is not None and store.item_rel_keys is not None and store.item_rel_memories is not None
            g_query_i, g_anchor_i, g_emb_i, g_keys_i, g_memories_i = _attention_backward(
                iatt, g_diff, store.item_rel_keys, store.item_rel_memories
            )
            g_qv = g_qv + g_query_i
            g_pu = g_pu + g_anchor_i
            grads.add_dense(ITEM_REL_KEYS, g_keys_i)
            grads.add_dense(ITEM_REL_MEMORIES, g_memories_i)
            imask = iatt.mask
            grads.add_rows(USER_VECS, iatt.support[imask], g_emb_i[imask])
    grads.add_rows(USER_VECS, stacked.users[:half], shared(g_pu))
    grads.add_rows(ITEM_VECS, stacked.items, g_qv)


def batch_distances(
    pairs: _Stacked | Sequence[RelationContext], kind: ModelKind, store: ParameterStore
) -> np.ndarray:
    """Distances of many pairs at once; agrees with :func:`score`.

    ``pairs`` is a stacked pass (:meth:`TripletBatch.stacked`) or a sequence
    of contexts, which is stacked first.
    """
    if not isinstance(pairs, _Stacked):
        if len(pairs) == 0:
            return np.zeros(0)
        pairs = _stack(pairs, kind)
    return _forward_stacked(pairs, kind, store).distances


def _check_finite_distances(distances: np.ndarray, users: np.ndarray, items: np.ndarray, start: int = 0) -> None:
    """Raise for the first non-finite distance; ``distances[i]`` belongs to
    the pair ``(users[start + i], items[start + i])``."""
    finite = np.isfinite(distances)
    if not finite.all():
        idx = start + int(np.argmin(finite))
        raise NonFiniteScoreError(idx, int(users[idx]), int(items[idx]))


# ``backward`` runs the batch in chunks of this many triplets, which bounds
# the size of the stacked forward temporaries of one pass.
_BACKWARD_CHUNK = 256


def backward(
    batch: TripletBatch,
    kind: ModelKind,
    store: ParameterStore,
    margin: float,
) -> tuple[SparseGradients, float]:
    """Exact subgradients of the summed triplet hinge loss over a batch.

    Each chunk of triplets is one stacked forward and backward pass over its
    positives followed by its negatives, with coefficients +1 and -1 on the
    active triplets; the two halves share the user and the history draw.
    Satisfied triplets (hinge exactly 0 included) contribute zero gradient.
    Returns the sparse gradients, whose embedding rows are reduced once when
    first read, and the summed batch loss. Raises
    :class:`NonFiniteScoreError` naming the offending triplet if a forward
    pass degenerates.
    """
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    grads = SparseGradients(store)
    total = 0.0
    for start in range(0, len(batch), _BACKWARD_CHUNK):
        cache = _forward_stacked(batch.stacked(start, start + _BACKWARD_CHUNK), kind, store)
        d_pos, d_neg = np.split(cache.distances, 2)
        _check_finite_distances(d_pos, batch.users, batch.pos, start)
        _check_finite_distances(d_neg, batch.users, batch.neg, start)
        slack = d_pos - d_neg + margin
        active = slack > 0.0
        total += float(slack[active].sum())
        if active.any():
            coeff = active.astype(np.float64)
            _backward_stacked(cache, kind, store, np.concatenate([coeff, -coeff]), grads)
    return grads, total


def _user_side_relations(
    query: np.ndarray, anchors: np.ndarray, support: np.ndarray, keys: np.ndarray, memories: np.ndarray
) -> np.ndarray:
    """User-side relations (C, d) of many candidates sharing one history.

    ``anchors`` (C, d) are the candidate vectors, ``support`` (H, d) the
    history vectors and ``query`` (d,) the user vector. The key logit of
    slot n for history row h and candidate c is q_c · (k_n ⊙ s_h), so one
    GEMM gives all of them as an (N, H·C) array.
    """
    n_rel, dim = keys.shape
    width = len(support)
    key_w = ((keys[:, None, :] * support).reshape(n_rel * width, dim) @ anchors.T).reshape(n_rel, -1)
    _softmax_leading(key_w)
    alpha = _softmax_leading(((memories @ query) @ key_w).reshape(width, -1))  # (H, C)
    key_w = key_w.reshape(n_rel, width, -1)
    key_w *= alpha
    return key_w.sum(axis=1).T @ memories


def _item_side_relations(
    cand: np.ndarray,
    ids: np.ndarray,
    mask: np.ndarray,
    user_w: np.ndarray,
    memories: np.ndarray,
) -> np.ndarray | None:
    """Item-side relations (C, d) for ``hlr++``, or None if every item history is empty.

    ``ids`` (C, J) holds each candidate's support users zero-padded where
    ``mask`` is unset. The anchor (the ranked user's vector) is shared by
    every candidate, so the key weights ``user_w`` (N, num_users) of a
    support user depend on that user alone: they are computed once per
    ranked user and gathered through the padded (J, C) item histories. The
    attention logit of support user j for candidate c is w_j · (M q_c).
    """
    if not mask.any():
        return None
    key_w = user_w[:, np.ascontiguousarray(ids.T)]  # (N, J, C)
    logits = np.einsum("njc,nc->jc", key_w, memories @ cand.T)
    key_w *= _masked_softmax(logits, mask.T, axis=0)
    return key_w.sum(axis=1).T @ memories


# Ranking scores the candidates in blocks whose largest temporary, the
# (N, H, block) key weights of ``hlr``/``hlr++``, holds about this many
# float64s (1 MiB): a block's passes over it then stay in a core's L2 cache
# instead of streaming through the shared last-level cache.
_RANK_BLOCK_ELEMENTS = 1 << 17


def candidate_distances(
    user: int,
    candidates: np.ndarray,
    kind: ModelKind,
    store: ParameterStore,
    history: np.ndarray | None = None,
    item_histories: _Rows | Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Distances from one user to many candidate items; agrees with :func:`score`.

    ``history`` is the user's (already capped) train history shared by every
    candidate. ``item_histories`` supplies the item histories of the
    ``hlr++`` head, either as rows over the catalog (row ``v`` holds the
    history of item ``v``; see :func:`evaluation.item_history_table`) or as a
    list with one user array per candidate. Each candidate block pads only
    its own rows. Every head scores ‖p + r − q‖² in closed
    form, one cache-sized block Q of candidates at a time, with no
    per-candidate context and no (C, H, d) tensor. Only the translation r
    differs: none for ``cml``; softmax((K ⊙ p) Qᵀ)ᵀ M for ``lrml``;
    softmax(Hist Qᵀ)ᵀ Hist over the history vectors for ``adacml``; the
    collapsed memory reads for ``hlr`` and ``hlr++``. An empty history gives
    no translation, so those heads then rank exactly like ``cml``.
    """
    if kind is ModelKind.HLRPP and (store.item_rel_keys is None or store.item_rel_memories is None):
        raise ValueError("hlr++ requires a store initialized with the item memory")
    pu = store.user_vecs[user]
    hist = None
    if kind.uses_history and history is not None and len(history) > 0:
        hist = store.item_vecs[history]
    widest = 1 if hist is None else len(hist)
    user_w = table = rows = None
    if kind is ModelKind.HLRPP and item_histories is not None:
        if isinstance(item_histories, _Rows):
            table, rows = item_histories, candidates
        elif len(item_histories) == len(candidates):
            table, rows = _Rows.of(item_histories), np.arange(len(candidates))
        else:
            raise ValueError(f"item_histories has {len(item_histories)} entries for {len(candidates)} candidates")
        user_w = _softmax_leading((store.item_rel_keys * pu) @ store.user_vecs.T)  # (N, num_users)
        widest = max(widest, int(table.lengths[rows].max(initial=0)))
    step = max(1, _RANK_BLOCK_ELEMENTS // (len(store.rel_keys) * widest))
    diff = np.empty((len(candidates), store.dim))
    for start in range(0, len(candidates), step):
        block = slice(start, start + step)
        cand = store.item_vecs[candidates[block]]
        relation = None
        if kind is ModelKind.LRML:
            relation = _softmax_leading((store.rel_keys * pu) @ cand.T).T @ store.rel_memories
        elif hist is not None and kind is ModelKind.ADACML:
            relation = _softmax_leading(hist @ cand.T).T @ hist
        elif hist is not None:
            relation = _user_side_relations(pu, cand, hist, store.rel_keys, store.rel_memories)
        if user_w is not None:
            item_rel = _item_side_relations(cand, *table.padded(rows[block]), user_w, store.item_rel_memories)
            if item_rel is not None:
                relation = item_rel if relation is None else relation + item_rel
        if relation is None:
            np.subtract(pu, cand, out=diff[block])
        else:
            np.add(pu, relation, out=diff[block])
            diff[block] -= cand
    return np.einsum("cd,cd->c", diff, diff)
