"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's vectorized code paths: the gradient
oracle differentiates the single-pair scoring path numerically, and the
ranking-metric oracle evaluates the textbook formulas with plain loops.
"""
from __future__ import annotations

import math

import numpy as np

from cmlrec.models import (
    ModelKind,
    RelationContext,
    TripletBatch,
    score,
    triplet_margin_loss,
)
from cmlrec.parameters import ParameterStore, SparseGradients, init_parameters


def batch_contexts(batch: TripletBatch) -> list[tuple[RelationContext, RelationContext]]:
    """The (positive, negative) context pair of each triplet of an array batch."""

    def row(ids: np.ndarray | None, mask: np.ndarray | None, i: int) -> np.ndarray:
        return np.empty(0, dtype=np.int64) if ids is None else ids[i][mask[i]]

    pairs = []
    for i, (u, v, w) in enumerate(zip(batch.users.tolist(), batch.pos.tolist(), batch.neg.tolist())):
        hist = row(batch.hist, batch.hist_mask, i)
        pairs.append((
            RelationContext(u, v, hist, row(batch.pos_ihist, batch.pos_ihist_mask, i)),
            RelationContext(u, w, hist, row(batch.neg_ihist, batch.neg_ihist_mask, i)),
        ))
    return pairs


def batch_loss_slow(batch: TripletBatch, kind: ModelKind, store: ParameterStore, margin: float) -> float:
    """Summed hinge loss via the single-pair scoring path."""
    total = 0.0
    for pos, neg in batch_contexts(batch):
        d_pos = score(pos, kind, store).distance
        d_neg = score(neg, kind, store).distance
        total += triplet_margin_loss(d_pos, d_neg, margin)
    return total


def fd_gradients(
    batch: TripletBatch, kind: ModelKind, store: ParameterStore, margin: float, h: float = 1e-4
) -> dict[str, np.ndarray]:
    """Central finite differences of the batch loss for every tensor entry."""
    out: dict[str, np.ndarray] = {}
    for name, tensor in store.tensors().items():
        grad = np.zeros_like(tensor)
        it = np.nditer(tensor, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = tensor[idx]
            tensor[idx] = orig + h
            up = batch_loss_slow(batch, kind, store, margin)
            tensor[idx] = orig - h
            down = batch_loss_slow(batch, kind, store, margin)
            tensor[idx] = orig
            grad[idx] = (up - down) / (2.0 * h)
        out[name] = grad
    return out


def dense_gradients(grads: SparseGradients, store: ParameterStore) -> dict[str, np.ndarray]:
    """Expand sparse analytic gradients into dense per-tensor arrays."""
    out: dict[str, np.ndarray] = {}
    for name, tensor in store.tensors().items():
        dense = np.zeros_like(tensor)
        if name in grads.tensors():
            for row in grads.rows(name):
                dense[row] = grads.vec(name, int(row))
        out[name] = dense
    return out


def random_instance(
    kind: ModelKind,
    gen: np.random.Generator,
    num_users: int = 5,
    num_items: int = 8,
    dim: int = 4,
    n_relations: int = 3,
    n_triplets: int = 3,
    max_history: int = 4,
    kink_margin: float = 1e-2,
) -> tuple[ParameterStore, TripletBatch]:
    """Random small store and triplet batch for gradient checking.

    Batches whose hinge slack sits within ``kink_margin`` of the kink are
    redrawn: the subgradient there is set-valued and finite differences
    straddle the corner.
    """
    from cmlrec.models import batch_distances

    for _ in range(100):
        store = init_parameters(
            num_users, num_items, dim, n_relations,
            with_item_memory=kind.uses_item_memory,
            seed=int(gen.integers(2**31)),
        )
        # spread the points out so distances (and slacks) vary
        for name, tensor in store.tensors().items():
            tensor += gen.normal(scale=0.5, size=tensor.shape)
        pos, neg = [], []
        for _ in range(n_triplets):
            u = int(gen.integers(num_users))
            pair = gen.choice(num_items, size=2, replace=False)
            v, w = int(pair[0]), int(pair[1])
            n_hist = int(gen.integers(0, max_history + 1))
            hist = np.sort(gen.choice(num_items, size=n_hist, replace=False)).astype(np.int64)
            hist = hist[hist != v]
            n_ih = int(gen.integers(0, max_history + 1))
            ih_pos = np.sort(gen.choice(num_users, size=n_ih, replace=False)).astype(np.int64)
            ih_pos = ih_pos[ih_pos != u]
            n_ih2 = int(gen.integers(0, max_history + 1))
            ih_neg = np.sort(gen.choice(num_users, size=n_ih2, replace=False)).astype(np.int64)
            ih_neg = ih_neg[ih_neg != u]
            pos.append(RelationContext(user=u, item=v, history=hist, item_history=ih_pos))
            neg.append(RelationContext(user=u, item=w, history=hist, item_history=ih_neg))
        slack = batch_distances(pos, kind, store) - batch_distances(neg, kind, store) + 1.0
        if np.all(np.abs(slack) > kink_margin):
            return store, TripletBatch.from_contexts(pos, neg)
    raise RuntimeError("could not draw a kink-free instance in 100 tries")


# ---------------------------------------------------------------------------
# Brute-force ranking metrics
# ---------------------------------------------------------------------------


def brute_precision(ranked: list[int], relevant: set[int], k: int) -> float:
    hits = 0
    for v in ranked[:k]:
        if v in relevant:
            hits += 1
    return hits / k


def brute_recall(ranked: list[int], relevant: set[int], k: int) -> float:
    hits = 0
    for v in ranked[:k]:
        if v in relevant:
            hits += 1
    return hits / len(relevant)


def brute_ndcg(ranked: list[int], relevant: set[int], k: int) -> float:
    dcg = 0.0
    for i, v in enumerate(ranked[:k], start=1):
        if v in relevant:
            dcg += 1.0 / math.log2(i + 1)
    idcg = 0.0
    for i in range(1, min(len(relevant), k) + 1):
        idcg += 1.0 / math.log2(i + 1)
    return dcg / idcg


def brute_ap(ranked: list[int], relevant: set[int], k: int) -> float:
    total = 0.0
    hits = 0
    for i, v in enumerate(ranked[:k], start=1):
        if v in relevant:
            hits += 1
            total += hits / i
    return total / min(len(relevant), k)


def brute_mrr(ranked: list[int], relevant: set[int], k: int) -> float:
    for i, v in enumerate(ranked[:k], start=1):
        if v in relevant:
            return 1.0 / i
    return 0.0
