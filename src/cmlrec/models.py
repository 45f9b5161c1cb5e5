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
operations below and is the readable reference. A :class:`TripletBatch`
holds each user and user-history row once, with the triplet's sides (the
positives and the negatives) as an axis of its items; training runs each
chunk ``batch[a:b]`` as one forward and backward pass over both sides.
Ranking scores whole-catalog rows only, in one call per head family. The
heads without a history, ``cml`` and ``lrml``, take one closed-form pass
over every item, a few users at a time (:func:`catalog_distances`). The
three history heads are scored against a block of the item matrix Q at a
time, with no per-candidate context (:func:`history_distances`): the
catalog is split into evenly sized blocks, as many as a user's largest
temporary holds budgets of ``_RANK_BLOCK_ELEMENTS``, rounded. ``adacml``
takes the users of one history length a chunk at a time
(:func:`_adacml_distances`): each of its batched products is a stack of
the one user's matrix products, so a row never depends on the other users.
:func:`candidate_distances` is a user's row of either call, read at its
candidates.

Both training and ranking read the memories of ``hlr``/``hlr++`` in the
collapsed array form: a key logit ⟨q_a ⊙ q_b, k_n⟩ equals q_a · (q_b ⊙ k_n),
an attention logit over a relation w M is w · (M p), and an
attention-weighted sum of relations is (Σ_h α_h w_h) M. So no (B, H, d) or
(C, H, d) relation tensor is built anywhere. Training gets the key logits of
a batch from one batched product per side (:func:`_attention_forward`),
stored slot-major so that the softmax over the slots reduces contiguous
rows. A training pass returns its backward next to its distances, and the
backward of an attention block gives the memory gradient as two
(N, B) @ (B, d) products. The attention over history slots
is one in-place masked softmax (:func:`_masked_softmax`). In ranking, the
hierarchy is read in its two levels. The first, the key weights
softmax_n(⟨q_c ⊙ q_h, k_n⟩) of a (candidate, history item) pair, depends
on the item pair alone, so users whose histories share items can share it:
per item block, one table holds the key weights of their distinct history
items (:func:`_key_weights`), each item's from a product of its own, and
each user's attention, the second level, reads its own rows of it
(:func:`_user_attention`). Users share a table when their history slots
number at least twice their distinct history items
(:func:`_shared_support`); below that, a table costs more than it saves,
and each user takes its own history as the table. ``hlr++``'s item side
reads the ranked user's key weights, one contiguous row per support user,
by one (C, J, N) gather, and its attention logits and mixed key weights
are two batched products. Tests hold the single-pair, training and
ranking paths together.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
    """One pass of ``m`` sides over ``U`` anchors, as index arrays.

    Side ``s`` scores ``items[s, i]`` for ``users[i]``; a training batch has
    two sides, the positives ``pos`` and the negatives ``neg``. Every side
    reads the one user-history row ``hist[i]``; the ``hlr++`` item histories
    ``ihist[s, i]`` differ per side. History arrays are zero-padded to the
    batch's widest row, and only the slots their masks set are read. A
    history a head does not read is None. ``batch[a:b]`` holds anchors
    ``a:b`` of every side.
    """

    users: np.ndarray  # (U,)
    items: np.ndarray  # (m, U)
    hist: np.ndarray | None = None  # (U, H)
    hist_mask: np.ndarray | None = None
    ihist: np.ndarray | None = None  # (m, U, J)
    ihist_mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.items.ndim != 2 or self.items.shape[1] != len(self.users):
            raise ValueError(f"items {self.items.shape} do not match {len(self.users)} users: expected (sides, users)")

    @classmethod
    def from_contexts(cls, *sides: Sequence[RelationContext]) -> "TripletBatch":
        """Array batch of hand-built context lists, one per side; the
        contexts ``sides[s][i]`` must share the user and the history."""
        first = sides[0]
        if any(len(side) != len(first) for side in sides):
            raise ValueError("context lists must have equal length")
        for c, *others in zip(*sides):
            for o in others:
                if o.user != c.user or not np.array_equal(o.history, c.history):
                    raise ValueError(f"contexts of user {c.user} (items {c.item}, {o.item}) "
                                     "do not share the user and history")
        hist, hist_mask = _Rows.of([c.history for c in first]).padded()
        ihist, ihist_mask = _Rows.of([c.item_history for side in sides for c in side]).padded()
        shape = (len(sides), len(first), ihist.shape[1])
        return cls(
            users=np.fromiter((c.user for c in first), dtype=np.int64, count=len(first)),
            items=np.array([[c.item for c in side] for side in sides], dtype=np.int64),
            hist=hist,
            hist_mask=hist_mask,
            ihist=ihist.reshape(shape),
            ihist_mask=ihist_mask.reshape(shape),
        )

    @property
    def pos(self) -> np.ndarray:
        return self.items[0]

    @property
    def neg(self) -> np.ndarray:
        return self.items[1]

    def __len__(self) -> int:
        return len(self.users)

    def __getitem__(self, part: slice) -> "TripletBatch":
        def cut(rows: np.ndarray | None, index: slice | tuple[slice, slice]) -> np.ndarray | None:
            return None if rows is None else rows[index]

        sides = (slice(None), part)
        return TripletBatch(
            users=self.users[part],
            items=self.items[sides],
            hist=cut(self.hist, part),
            hist_mask=cut(self.hist_mask, part),
            ihist=cut(self.ihist, sides),
            ihist_mask=cut(self.ihist_mask, sides),
        )


# ---------------------------------------------------------------------------
# Small composable operations
# ---------------------------------------------------------------------------


def stable_softmax(logits: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax with max subtraction; cannot overflow for finite input.

    ``out=logits`` is the in-place form. Over the leading axis (``axis=0``)
    of a contiguous array it combines whole rows, which is much cheaper than
    many short last-axis reductions. An empty ``axis`` gives an empty
    result: the max starts from -inf, which leaves every other max exact.
    """
    shifted = np.subtract(logits, np.max(logits, axis=axis, keepdims=True, initial=-np.inf), out=out)
    ex = np.exp(shifted, out=out)
    ex /= ex.sum(axis=axis, keepdims=True)
    return ex


def _masked_softmax(logits: np.ndarray, mask: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax over the set entries of ``mask`` along ``axis``.

    One copy floors the unset entries at a finite -1e300, whose exponential
    after the max shift is exactly 0, and the rest runs in place. A fully
    masked slice would come out uniform, so the result is multiplied by
    whether the slice has a set entry: it yields zeros. A NaN in a set entry
    yields NaN.
    """
    ex = np.where(mask, logits, -1e300)
    ex -= ex.max(axis=axis, keepdims=True)
    np.exp(ex, out=ex)
    ex /= ex.sum(axis=axis, keepdims=True)
    ex *= mask.any(axis=axis, keepdims=True)
    return ex


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
# Batched forward/backward over the sides of a TripletBatch
# ---------------------------------------------------------------------------

# ``backward(coeff, grads)`` of a pass: adds coeff[b] * d(distance_b)/d(params)
# into ``grads``.
Backward = Callable[[np.ndarray, SparseGradients], None]


def _attention_forward(
    support: np.ndarray,
    mask: np.ndarray,
    table: np.ndarray,
    anchor: np.ndarray,
    query: np.ndarray,
    keys: np.ndarray,
    memories: np.ndarray,
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[np.ndarray, ...]]]:
    """Hierarchical relation block: memory relations between ``anchor`` and
    each support row, then attention with ``query``. Shapes: support (B, H),
    anchor/query (B, d). Returns the relations (B, d) and their backward.

    The memory read is collapsed: the key logit of support row e_h and slot n
    is e_h · (anchor ⊙ k_n), one batched product; the attention logit of the
    relation w_h M is w_h · (M q); and the relation is (Σ_h α_h w_h) M. So no
    (B, H, d) joint-embedding or relation tensor is formed.
    """
    emb = table.take(support, axis=0)  # (B, H, d)
    anchored_keys = anchor[:, None, :] * keys  # (B, N, d)
    # The logits are stored slot-major, (N, B, H), so the in-place softmax
    # over the slots reduces whole contiguous (B, H) rows; key_w is its
    # (B, N, H) view.
    by_slot = np.empty((len(keys), *support.shape))
    key_w = np.matmul(anchored_keys, emb.transpose(0, 2, 1), out=by_slot.transpose(1, 0, 2))
    stable_softmax(by_slot, axis=0, out=by_slot)
    read = query @ memories.T  # (B, N)
    att_logits = (read[:, None, :] @ key_w)[:, 0, :]  # (B, H)
    alpha = _masked_softmax(att_logits, mask)
    mixed_w = (key_w @ alpha[:, :, None])[:, :, 0]  # (B, N)

    def backward(g_relation: np.ndarray) -> tuple[np.ndarray, ...]:
        """Given dL/d(relation) returns (g_query, g_anchor, g_emb (B, H, d),
        g_keys, g_memories); g_emb is zero at masked slots. The memories get
        w̄ᵀ g_relation + ḡwᵀ q, two (N, B) @ (B, d) products. The key-logit
        gradient is key_w ⊙ (ḡ αᵀ + (M q) g_attᵀ − c), a rank-2 batched
        product less a (B, H) term c; one (B, N, d) product of it with the
        support embeddings gives both g_keys and g_anchor.
        """
        g_mixed = g_relation @ memories.T  # (B, N)
        g_alpha = (g_mixed[:, None, :] @ key_w)[:, 0, :]  # (B, H)
        inner = (g_alpha * alpha).sum(axis=1, keepdims=True)
        g_att = alpha * (g_alpha - inner)  # attention-logit gradient (B, H)
        g_read = (key_w @ g_att[:, :, None])[:, :, 0]  # (B, N)
        g_query = g_read @ memories
        g_memories = mixed_w.T @ g_relation + g_read.T @ query
        # dL/dw_h = α_h ḡ + g_att_h (M q), whose product with w_h is
        # α_h g_alpha_h + g_att_h att_logit_h, so the softmax backward needs no
        # (B, N, H) reduction.
        g_key_logits = np.stack([g_mixed, read], axis=2) @ np.stack([alpha, g_att], axis=1)  # (B, N, H)
        g_key_logits -= (alpha * g_alpha + g_att * att_logits)[:, None, :]
        g_key_logits *= key_w
        g_emb = g_key_logits.transpose(0, 2, 1) @ anchored_keys  # (B, H, d)
        g_anchored = g_key_logits @ emb  # (B, N, d)
        g_anchor = np.einsum("bnd,nd->bd", g_anchored, keys)
        g_keys = np.einsum("bnd,bd->nd", g_anchored, anchor)
        return g_query, g_anchor, g_emb, g_keys, g_memories

    return mixed_w @ memories, backward


# Diverging parameters overflow here; callers detect the non-finite distances
# and raise NonFiniteScoreError, so numpy's warnings would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def _forward_stacked(batch: TripletBatch, kind: ModelKind, store: ParameterStore) -> tuple[np.ndarray, Backward]:
    """One pass over every side of ``batch``, flattened side-major: row
    ``s * U + i`` scores ``items[s, i]`` for ``users[i]``. Returns the
    distances and the pass's backward.

    Each head's branch computes its translation r and, next to it, the
    backward of ‖p + r − q‖² from ḡ = dL/d(p + r − q): it adds the gradients
    of the head's keys, memories and history slots into ``grads`` and returns
    those of p and q, ḡ and −ḡ plus the head's terms. The sides read the same
    users and user-history rows, so the gradients of those rows are summed
    over the sides first and scattered once; the items and the ``hlr++`` item
    histories differ per side and are scattered whole.
    """
    sides = len(batch.items)
    pu = store.user_vecs[np.concatenate([batch.users] * sides)]
    qv = store.item_vecs[batch.items.reshape(-1)]

    def per_side(per_row: np.ndarray) -> np.ndarray:
        return per_row.reshape(sides, len(batch), *per_row.shape[1:])

    def shared(per_row: np.ndarray) -> np.ndarray:
        return per_side(per_row).sum(axis=0)

    def add_set_slots(
        grads: SparseGradients, name: str, ids: np.ndarray, mask: np.ndarray, g_slots: np.ndarray
    ) -> None:
        # The (ids, gradient) pairs of the slots ``mask`` sets, in row order.
        set_slots = np.flatnonzero(mask)
        grads.add_rows(name, ids.take(set_slots), g_slots.reshape(mask.size, -1).take(set_slots, axis=0))

    if kind.uses_history:
        assert batch.hist is not None and batch.hist_mask is not None
        hist, hist_mask = np.concatenate([batch.hist] * sides), np.concatenate([batch.hist_mask] * sides)
    if kind is ModelKind.CML:
        relation = np.zeros_like(pu)

        def translation_backward(g_rel: np.ndarray, grads: SparseGradients) -> tuple[np.ndarray, np.ndarray]:
            return g_rel, -g_rel

    elif kind is ModelKind.LRML:
        s = pu * qv
        key_w = stable_softmax(s @ store.rel_keys.T, axis=-1)
        relation = key_w @ store.rel_memories

        def translation_backward(g_rel: np.ndarray, grads: SparseGradients) -> tuple[np.ndarray, np.ndarray]:
            grads.add_dense(REL_MEMORIES, key_w.T @ g_rel)
            g_key_w = g_rel @ store.rel_memories.T
            inner = (g_key_w * key_w).sum(axis=1, keepdims=True)
            g_logits = key_w * (g_key_w - inner)
            grads.add_dense(REL_KEYS, g_logits.T @ s)
            g_s = g_logits @ store.rel_keys
            return g_rel + g_s * qv, -g_rel + g_s * pu

    elif kind is ModelKind.ADACML:
        hist_emb = store.item_vecs[hist]
        alpha = _masked_softmax((hist_emb @ qv[:, :, None])[:, :, 0], hist_mask)
        relation = (alpha[:, None, :] @ hist_emb)[:, 0, :]

        def translation_backward(g_rel: np.ndarray, grads: SparseGradients) -> tuple[np.ndarray, np.ndarray]:
            g_alpha = (hist_emb @ g_rel[:, :, None])[:, :, 0]
            inner = (g_alpha * alpha).sum(axis=1, keepdims=True)
            g_logits = alpha * (g_alpha - inner)
            g_qv = -g_rel + (g_logits[:, None, :] @ hist_emb)[:, 0, :]
            # The history gradient α_h ḡ + g_logit_h q per slot, summed over
            # the sides by one batched product of the weights (α, g_logit)
            # and the vectors (ḡ, q) of each side in turn.
            weights = np.stack([w for side in zip(per_side(alpha), per_side(g_logits)) for w in side], axis=2)
            vectors = np.stack([v for side in zip(per_side(g_rel), per_side(qv)) for v in side], axis=1)
            add_set_slots(grads, ITEM_VECS, batch.hist, batch.hist_mask, weights @ vectors)
            return g_rel, g_qv

    else:  # hlr, hlr++
        relation, user_backward = _attention_forward(
            hist, hist_mask, store.item_vecs, anchor=qv, query=pu,
            keys=store.rel_keys, memories=store.rel_memories,
        )
        item_backward = None
        if kind is ModelKind.HLRPP:
            assert batch.ihist is not None and batch.ihist_mask is not None
            if store.item_rel_keys is None or store.item_rel_memories is None:
                raise ValueError("hlr++ requires a store initialized with the item memory")
            width = batch.ihist.shape[2]
            ihist, ihist_mask = batch.ihist.reshape(-1, width), batch.ihist_mask.reshape(-1, width)
            item_rel, item_backward = _attention_forward(
                ihist, ihist_mask, store.user_vecs, anchor=pu,
                query=qv, keys=store.item_rel_keys, memories=store.item_rel_memories,
            )
            relation = relation + item_rel

        def translation_backward(g_rel: np.ndarray, grads: SparseGradients) -> tuple[np.ndarray, np.ndarray]:
            g_query, g_anchor, g_emb, g_keys, g_memories = user_backward(g_rel)
            g_pu, g_qv = g_rel + g_query, -g_rel + g_anchor
            grads.add_dense(REL_KEYS, g_keys)
            grads.add_dense(REL_MEMORIES, g_memories)
            add_set_slots(grads, ITEM_VECS, batch.hist, batch.hist_mask, shared(g_emb))
            if item_backward is not None:
                g_query, g_anchor, g_emb, g_keys, g_memories = item_backward(g_rel)
                g_pu, g_qv = g_pu + g_anchor, g_qv + g_query
                grads.add_dense(ITEM_REL_KEYS, g_keys)
                grads.add_dense(ITEM_REL_MEMORIES, g_memories)
                add_set_slots(grads, USER_VECS, ihist, ihist_mask, g_emb)
            return g_pu, g_qv

    diff = pu + relation - qv

    def backward(coeff: np.ndarray, grads: SparseGradients) -> None:
        g_pu, g_qv = translation_backward((2.0 * coeff)[:, None] * diff, grads)
        grads.add_rows(USER_VECS, batch.users, shared(g_pu))
        grads.add_rows(ITEM_VECS, batch.items.reshape(-1), g_qv)

    return np.einsum("bd,bd->b", diff, diff), backward


def batch_distances(
    pairs: TripletBatch | Sequence[RelationContext], kind: ModelKind, store: ParameterStore
) -> np.ndarray:
    """Distances of many pairs at once; agrees with :func:`score`.

    ``pairs`` is a batch, whose distances come side after side, or a
    sequence of contexts, which is scored as a one-sided batch.
    """
    if not isinstance(pairs, TripletBatch):
        pairs = TripletBatch.from_contexts(pairs)
    return _forward_stacked(pairs, kind, store)[0]


def _triplet_slack(distances: np.ndarray, chunk: TripletBatch, margin: float, start: int = 0) -> np.ndarray:
    """d_pos − d_neg + margin of each triplet of the two-sided ``chunk``
    from its ``distances``, side after side. Raises
    :class:`NonFiniteScoreError` for the first non-finite distance, the
    positives first; ``start`` is the chunk's offset in its batch."""
    d_pos, d_neg = distances.reshape(2, -1)
    for items, side in zip(chunk.items, (d_pos, d_neg)):
        finite = np.isfinite(side)
        if not finite.all():
            i = int(np.argmin(finite))
            raise NonFiniteScoreError(start + i, int(chunk.users[i]), int(items[i]))
    return d_pos - d_neg + margin


# ``backward`` runs the batch in chunks of this many triplets, which bounds
# the size of the forward temporaries of one pass over both sides.
_BACKWARD_CHUNK = 256


def backward(
    batch: TripletBatch,
    kind: ModelKind,
    store: ParameterStore,
    margin: float,
) -> tuple[SparseGradients, float]:
    """Exact subgradients of the summed triplet hinge loss over a batch.

    ``batch`` has two sides, the positives and the negatives. Each chunk
    ``batch[a:b]`` is one forward and backward pass over both sides, with
    coefficients +1 and -1 on the active triplets; the sides share the user
    and the history draw. Satisfied triplets (hinge exactly 0 included)
    contribute zero gradient. Returns the sparse gradients, whose embedding
    rows are reduced once when first read, and the summed batch loss.
    Raises :class:`NonFiniteScoreError` naming the offending triplet if a
    forward pass degenerates.
    """
    if len(batch.items) != 2:
        raise ValueError(f"backward needs a batch of two sides, positives and negatives; got {len(batch.items)}")
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    grads = SparseGradients(store)
    total = 0.0
    for start in range(0, len(batch), _BACKWARD_CHUNK):
        chunk = batch[start : start + _BACKWARD_CHUNK]
        distances, chunk_backward = _forward_stacked(chunk, kind, store)
        slack = _triplet_slack(distances, chunk, margin, start)
        active = slack > 0.0
        total += float(slack[active].sum())
        if active.any():
            coeff = active.astype(np.float64)
            chunk_backward(np.concatenate([coeff, -coeff]), grads)
    return grads, total


def _key_weights(keys: np.ndarray, support: np.ndarray, cand_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first level of the hierarchy: the key weights
    softmax_n(⟨q_c ⊙ s_h, k_n⟩) of every (support row h, candidate c). They
    depend on the item pair alone, not on the user who ranks it.

    ``support`` (H, d) holds history item vectors and ``cand_t`` the
    candidate vectors as a contiguous (d, C) array. Returns the
    exponentials e (H, N, C) of the max-shifted key logits, one contiguous
    (N, C) slab per support row, and their sums z (H, C) over the slots; the
    weight of slot n is e_n / z, and :func:`_user_attention` divides by z
    only after reducing over the slots. The key logit of slot n is
    q_c · (k_n ⊙ s_h), so each support row's logits are one
    (N, d) @ (d, C) matrix product of their own, and the shift and sum
    reduce its own slab: a row's values never depend on the other rows of
    the call, and a table over the distinct history items of many users
    gives each user the bits its own call would.
    """
    exps = np.matmul(keys * support[:, None, :], cand_t)
    exps -= exps.max(axis=1, keepdims=True)
    np.exp(exps, out=exps)
    return exps, exps.sum(axis=1)


def _user_attention(query: np.ndarray, exps: np.ndarray, sums: np.ndarray, memories: np.ndarray) -> np.ndarray:
    """The second level: the user's attention over its history rows of the
    key weights e / z (see :func:`_key_weights`), returning the user-side
    relations (C, d). The relation of history row h and candidate c is
    w_hc M, so its attention logit is w_hc · (M p) = (e_hc · (M p)) / z_hc
    for the user vector ``query`` p, and the attention-weighted sum of
    relations is (Σ_h (α_hc / z_hc) e_hc) M: one batched product gives the
    logits and one ``einsum`` pass the mixed weights. An empty history
    (H = 0) sums no terms: its relations are zero.
    """
    logits = np.matmul(memories @ query, exps)  # (H, C)
    logits /= sums
    alpha = stable_softmax(logits, axis=0, out=logits)
    alpha /= sums
    return np.einsum("hnc,hc->nc", exps, alpha).T @ memories


def _item_key_weights(anchor: np.ndarray, store: ParameterStore) -> np.ndarray:
    """``hlr++``'s item-side key weights of every user as support for the
    ranked user ``anchor``, one contiguous (num_users, N) row per user."""
    logits = (store.item_rel_keys * anchor) @ store.user_vecs.T
    return np.ascontiguousarray(stable_softmax(logits, axis=0, out=logits).T)


def _item_side_relations(
    ids: np.ndarray,
    mask: np.ndarray,
    reads: np.ndarray,
    user_w: np.ndarray,
    memories: np.ndarray,
) -> np.ndarray:
    """Item-side relations (C, d) for ``hlr++``.

    ``ids`` (C, J) holds each candidate's support users zero-padded where
    ``mask`` is unset, and ``reads`` (C, N) the candidates' memory reads
    Q Mᵀ. The anchor (the ranked user's vector) is shared by every
    candidate, so the key weights of a support user depend on that user
    alone: they are the rows of ``user_w`` (num_users, N) (see
    :func:`_item_key_weights`), and one gather through ``ids`` gives the
    (C, J, N) key weights of the block, a contiguous row per slot. The
    attention logit of support user j for candidate c is w_j · (M q_c), one
    batched product with the reads; the mixed key weights are one
    (C, 1, J) @ (C, J, N) product, and the relations those weights times M.
    A candidate with an empty item history has no set slot, so its
    attention, and with it its relation, is zero.
    """
    key_w = user_w.take(ids, axis=0)  # (C, J, N)
    logits = key_w @ reads[:, :, None]  # (C, J, 1)
    # ``mask.T`` is a contiguous (J, C) array, so the softmax reduces over J
    # along the leading axis: whole rows, not many rows of a few entries.
    beta = _masked_softmax(logits[:, :, 0].T, mask.T, axis=0)
    return (beta.T[:, None, :] @ key_w)[:, 0, :] @ memories


# Ranking splits the candidates into evenly sized blocks whose largest
# temporaries, the (N, H, block) key weights of ``hlr``/``hlr++`` and the
# (block, J, N) gathered item-side key weights of ``hlr++``, hold about this
# many float64s (1 MiB) each: a block's passes over them then stay near a
# core's L2 cache instead of streaming through the shared last-level cache.
# The block count is the total rounded to the nearest whole number of
# budgets, so a user just over one budget is still one block, rather than a
# full block and a nearly empty one that pays the per-block cost for little
# work.
_RANK_BLOCK_ELEMENTS = 1 << 17


def _block_step(count: int, n_rel: int, widest: int) -> int:
    """Candidates per block when ``count`` candidates, each with ``widest``
    support rows over ``n_rel`` slots, are split evenly into their number of
    budgets, rounded."""
    blocks = max(1, round(count * n_rel * widest / _RANK_BLOCK_ELEMENTS))
    return max(1, -(-count // blocks))


def candidate_distances(
    user: int,
    candidates: np.ndarray,
    kind: ModelKind,
    store: ParameterStore,
    history: np.ndarray | None = None,
    item_histories: _Rows | None = None,
) -> np.ndarray:
    """Distances from one user to many candidate items; agrees with :func:`score`.

    The user's row over the whole catalog, read at ``candidates``: the row
    of :func:`catalog_distances` for ``cml`` and ``lrml``, and the one-user
    case of :func:`history_distances` for the history heads. So a user's
    distances are the same bits for any candidates, and the same as in a
    block of users. ``history`` is the user's (already capped) train
    history. ``item_histories`` supplies the item histories of the
    ``hlr++`` head as rows over the catalog: row ``v`` holds the history of
    item ``v`` (see :func:`evaluation.item_history_table`). Raises
    ``ValueError`` for a user outside ``[0, num_users)`` or a candidate
    outside ``[0, num_items)``.
    """
    if not 0 <= user < store.num_users:
        raise ValueError(f"user {user} is outside [0, {store.num_users})")
    candidates = np.asarray(candidates, dtype=np.int64)
    if len(candidates) and not (0 <= candidates.min() and candidates.max() < store.num_items):
        raise ValueError(f"candidates must lie in [0, {store.num_items})")
    users = np.array([user])
    if not kind.uses_history:
        return catalog_distances(users, kind, store)[0, candidates]
    history = _Rows.of([_EMPTY if history is None else history])
    return history_distances(users, history, kind, store, item_histories)[0, candidates]


def _shared_support(histories: _Rows) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """One table of key weights for the users of ``histories``: their
    distinct history items and each user's rows of them. None when a table
    would cost more than it saves: unless at least two users have a history
    and their slots number at least twice their distinct items
    (Σ|S_u| ≥ 2·|∪S_u|; the measured crossover lies at 1.25-1.5 slots per
    item)."""
    if np.count_nonzero(histories.lengths) < 2:
        return None
    support, slots = np.unique(histories.values, return_inverse=True)
    if len(slots) < 2 * len(support):
        return None
    return support, np.split(slots, histories.starts[1:])


def history_distances(
    users: np.ndarray,
    histories: _Rows,
    kind: ModelKind,
    store: ParameterStore,
    item_histories: _Rows | None = None,
) -> np.ndarray:
    """The (users, catalog) distances of the history heads, user i
    attending over ``histories[i]``; each row agrees with :func:`score` and
    is, bit for bit, the user's :func:`candidate_distances`.

    ‖p + r − q‖² is scored in closed form, one cache-sized block Q of evenly
    split items at a time (:func:`_block_step`), with no per-candidate
    context and no (C, H, d) tensor. Only the translation r differs:
    softmax(Hist Qᵀ)ᵀ Hist over the history vectors for ``adacml``
    (:func:`_adacml_distances`); the collapsed memory reads for ``hlr`` and
    ``hlr++``. An empty history sums no terms, so it gives a zero
    translation through the same path: ``adacml`` and ``hlr`` then rank
    exactly like ``cml``, and ``hlr++`` by its item side alone.

    The memory heads read their hierarchy in two levels. The first, the key
    weights of every (history item, candidate) pair (:func:`_key_weights`),
    does not depend on the user. The users whose catalogs split into the
    same blocks form a group, and a group shares that level when its
    history slots number at least twice its distinct history items
    (:func:`_shared_support`): per block, one table holds the key weights
    of their distinct history items, and each user's attention
    (:func:`_user_attention`) reads its own rows of it. Any other group
    ranks each user alone, its history as the table. Every product has a
    shape fixed by the user and the block alone, so a row never depends on
    the other users. The table of a block holds N × (distinct history
    items) × block key weights. A user's own rows of a block hold at most
    about 1.5 budgets (the block count is rounded), and a shared table
    holds at most half of its users' rows: it stays below the group's
    users × ``_RANK_BLOCK_ELEMENTS``.

    ``hlr++``'s item side reads ``item_histories``, rows over the catalog
    (see :func:`candidate_distances`). It pads each block's item histories
    and computes their memory reads Q M′ᵀ once per block. Each user's key
    weights over the second memory are a contiguous (num_users, N) array
    whose rows each block gathers (see :func:`_item_side_relations`); a user
    alone computes them once, and a shared table's users compute each
    member's per block, so that they hold one such array at a time.

    Raises ``ValueError`` unless ``histories`` holds one row per user and
    ``item_histories`` is None or one row per item of the catalog.
    """
    if not kind.uses_history:
        raise ValueError(f"{kind.value} reads no history; rank it with catalog_distances")
    if len(histories) != len(users):
        raise ValueError(f"histories has {len(histories)} entries for {len(users)} users")
    if kind is ModelKind.HLRPP and (store.item_rel_keys is None or store.item_rel_memories is None):
        raise ValueError("hlr++ requires a store initialized with the item memory")
    rows_over_catalog = isinstance(item_histories, _Rows) and len(item_histories) == store.num_items
    if item_histories is not None and not rows_over_catalog:
        raise ValueError(f"item_histories must be rows over the catalog, one for each of its {store.num_items} items")
    if kind is ModelKind.ADACML:
        return _adacml_distances(users, histories, store)
    num_items, n_rel = store.num_items, len(store.rel_keys)
    table = item_histories if kind is ModelKind.HLRPP else None
    item_widest = 0 if table is None else int(table.lengths.max(initial=0))
    steps = np.array([_block_step(num_items, n_rel, max(n, item_widest, 1)) for n in histories.lengths.tolist()])
    out = np.empty((len(users), num_items))
    for step in dict.fromkeys(steps.tolist()):
        group = np.flatnonzero(steps == step).tolist()
        shared = _shared_support(histories.take(group))
        tables = [(group, *shared)] if shared else [([i], histories[i], [slice(None)]) for i in group]
        for members, support, slots in tables:
            support_vecs = store.item_vecs[support]
            # hlr++'s (num_users, N) item key weights: a user alone keeps its
            # own for all its blocks; a shared table's users make each
            # member's per block, so they never hold more than one.
            alone_w = None
            if table is not None and len(members) == 1:
                alone_w = _item_key_weights(store.user_vecs[users[members[0]]], store)
            for start in range(0, num_items, step):
                block = slice(start, start + step)
                cand = store.item_vecs[block]
                exps, sums = _key_weights(store.rel_keys, support_vecs, np.ascontiguousarray(cand.T))
                if table is not None:
                    ids, mask = table.padded(block)
                    reads = cand @ store.item_rel_memories.T
                for i, rows in zip(members, slots):
                    pu = store.user_vecs[users[i]]
                    diff = _user_attention(pu, exps[rows], sums[rows], store.rel_memories)
                    if table is not None:
                        user_w = alone_w if alone_w is not None else _item_key_weights(pu, store)
                        diff += _item_side_relations(ids, mask, reads, user_w, store.item_rel_memories)
                    diff += pu
                    diff -= cand
                    np.einsum("cd,cd->c", diff, diff, out=out[i, block])
    return out


def _adacml_distances(users: np.ndarray, histories: _Rows, store: ParameterStore) -> np.ndarray:
    """:func:`history_distances` of ``adacml``, a chunk of users at a time.

    The users are grouped by their exact history length H, which fixes their
    candidate blocks (:func:`_block_step`), and each group is taken in
    chunks of G users whose (G, H, block) logits and (G, block, d)
    relations each hold about one ``_RANK_BLOCK_ELEMENTS`` budget. Per
    chunk, one gather gives its (G, H, d) histories; per candidate block,
    one batched product gives the logits Hist Qᵀ, a softmax over H gives
    the attention, and a second batched product its transpose times Hist
    gives the relations, to which p is added, q subtracted and the squares
    summed over d by ``einsum``. Each product is a stack of the one user's
    matrix products, with the same shapes and the same operand layouts (the
    right operand of the logits is the transposed view Qᵀ), so a row is the
    one user's, bit for bit: a contiguous Qᵀ copy, or histories padded to a
    common length, would round some distances differently.
    """
    num_items, n_rel, dim = store.num_items, len(store.rel_keys), store.dim
    out = np.empty((len(users), num_items))
    for length in dict.fromkeys(histories.lengths.tolist()):
        members = np.flatnonzero(histories.lengths == length)
        step = _block_step(num_items, n_rel, max(length, 1))
        chunk = max(1, _RANK_BLOCK_ELEMENTS // (max(length, dim) * step))
        ids = histories.take(members).values.reshape(len(members), length)  # (users, H)
        for first in range(0, len(members), chunk):
            rows = members[first : first + chunk]
            pu = store.user_vecs[users[rows]][:, None, :]  # (G, 1, d)
            hist = store.item_vecs[ids[first : first + chunk]]  # (G, H, d)
            for start in range(0, num_items, step):
                block = slice(start, start + step)
                out[rows, block] = _adacml_block(pu, hist, store.item_vecs[block])
    return out


def _adacml_block(pu: np.ndarray, hist: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The (G, block) ``adacml`` distances of G users, ``pu`` (G, 1, d),
    with histories ``hist`` (G, H, d) to the candidates ``cand``
    (block, d). Its temporaries die on return, so that a chunk holds one
    block's at a time."""
    alpha = hist @ cand.T  # (G, H, block)
    stable_softmax(alpha, axis=1, out=alpha)
    diff = alpha.transpose(0, 2, 1) @ hist  # (G, block, d)
    diff += pu
    diff -= cand
    return np.einsum("gcd,gcd->gc", diff, diff)


# ``catalog_distances`` splits one user's row into parts of at least this many
# items: a narrower part would pay the per-part cost for almost no work.
# Parts of a quarter budget, the size of a chunk of users, cost rank-catalog's
# 2000-item rows 6-8% in per-part calls; a part holds a whole budget instead.
_MIN_CATALOG_PART = 256


def catalog_distances(users: np.ndarray, kind: ModelKind, store: ParameterStore) -> np.ndarray:
    """The distances of every user in ``users`` to every item, as a
    (users, num_items) array, for the heads that read no history (``cml``
    and ``lrml``); they agree with :func:`score`. Ranking scores these heads
    here only: :func:`candidate_distances` takes its row from this function.

    The users are taken a few at a time, so each chunk's largest temporary,
    the (users, items, d) difference or ``lrml``'s (N, users, items) key
    logits, holds about a quarter of ``_RANK_BLOCK_ELEMENTS``: it is reduced
    while it is still in cache. A user whose row holds more than that is a
    chunk of its own, and one whose row holds more than about a whole
    budget takes the catalog in evenly split parts of about one budget each
    (:func:`_block_step`), of at least ``_MIN_CATALOG_PART`` items, so one
    user's temporaries stay bounded however large the catalog. Both buffers
    are reused by every chunk and part.
    ``cml`` subtracts and reduces with ``einsum`` over d; the expanded
    ‖p‖² − 2pᵀq + ‖q‖² would round differently. ``lrml``'s translation is
    softmax((K ⊙ p) Qᵀ)ᵀ M: one batched product gives the key logits of
    the chunk, stored slot-major so that the softmax over the slots reduces
    whole rows, and a second one writes the relations into the difference
    buffer, which then adds p and subtracts q in place before the same
    ``einsum``. Both products make one (N, d) @ (d, items) and one
    (items, N) @ (N, d) matrix product per user and part, and the parts
    depend only on the catalog and the store, so a user's row never
    depends on which users share its chunk.
    """
    if kind.uses_history:
        raise ValueError(f"{kind.value} reads a history; rank it with history_distances")
    items = store.item_vecs
    num_items, dim = items.shape
    n_rel = 0 if kind is ModelKind.CML else len(store.rel_keys)
    step = max(1, _RANK_BLOCK_ELEMENTS // 4 // max(max(dim, n_rel) * num_items, 1))
    width = min(num_items, max(_block_step(num_items, max(dim, n_rel), 1), _MIN_CATALOG_PART))
    users_per_chunk = min(step, len(users))
    out = np.empty((len(users), num_items))
    diff = np.empty((users_per_chunk, width, dim))
    logits = np.empty(n_rel * users_per_chunk * width)
    for start in range(0, len(users), step):
        chunk = users[start : start + step]
        pu = store.user_vecs[chunk]
        for first in range(0, num_items, width):
            cols = slice(first, first + width)
            q = items[cols]
            part = diff[: len(chunk), : len(q)]
            if kind is ModelKind.CML:
                np.subtract(pu[:, None, :], q, out=part)
            else:
                by_slot = logits[: n_rel * len(chunk) * len(q)].reshape(n_rel, len(chunk), len(q))
                np.matmul(store.rel_keys * pu[:, None, :], q.T, out=by_slot.transpose(1, 0, 2))
                by_pair = by_slot.reshape(n_rel, -1)
                stable_softmax(by_pair, axis=0, out=by_pair)
                np.matmul(by_slot.transpose(1, 2, 0), store.rel_memories, out=part)
                part += pu[:, None, :]
                part -= q
            np.einsum("ucd,ucd->uc", part, part, out=out[start : start + step, cols])
    return out
