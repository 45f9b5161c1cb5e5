"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's vectorized code paths: the gradient
oracle differentiates the single-pair scoring path numerically, the
ranking-metric oracle evaluates the textbook formulas with plain loops, the
planted-data oracle draws every cluster with ``Generator.choice``, and the
evaluation oracle ranks and scores one user at a time.
"""
from __future__ import annotations

import functools
import math
import operator

import numpy as np

from cmlrec.datasets import InteractionDataset, SplitDataset
from cmlrec.evaluation import (
    EvalReport,
    UserEval,
    item_history_table,
    map_at_k,
    median_popularity,
    mrr_at_k,
    ndcg_at_k,
    precision_recall_at_k,
    rank_items,
    ranking_history,
)
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

    def row(ids: np.ndarray | None, mask: np.ndarray | None, index: tuple[int, ...]) -> np.ndarray:
        return np.empty(0, dtype=np.int64) if ids is None else ids[index][mask[index]]

    pairs = []
    for i, u in enumerate(batch.users.tolist()):
        hist = row(batch.hist, batch.hist_mask, (i,))
        pairs.append(tuple(
            RelationContext(u, int(batch.items[s, i]), hist, row(batch.ihist, batch.ihist_mask, (s, i)))
            for s in range(2)
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
    dense = np.zeros_like(store.arena)
    rows, values = grads.sums()
    dense[rows] = values
    return {name: dense[block] for name, block in store.blocks.items()}


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


def evaluate_per_user(
    store: ParameterStore, kind: ModelKind, split: SplitDataset, phase: str, k: int, history_cap: int
) -> EvalReport:
    """The verbose report of ``evaluate`` built one user at a time: each user
    is ranked by ``rank_items`` and scored by the four per-user metric
    functions, and the means are left-to-right sums in user order."""
    view = split.validation if phase == "validation" else split.test
    item_table = item_history_table(split, history_cap) if kind.uses_item_memory else None
    results = []
    for u in range(split.num_users):
        relevant = set(view.user_items[u].tolist())
        if not relevant:
            continue
        exclusions = split.train.user_items[u]
        if phase == "test":
            exclusions = np.concatenate([exclusions, split.validation.user_items[u]])
        history = ranking_history(split, u, kind, history_cap)
        ranked = rank_items(u, store, kind, exclusions, k, history=history, item_histories=item_table).tolist()
        assert not set(ranked) & set(exclusions.tolist())
        p, r = precision_recall_at_k(ranked, relevant, k)
        results.append(UserEval(u, ranked, p, r, ndcg_at_k(ranked, relevant, k), map_at_k(ranked, relevant, k),
                                mrr_at_k(ranked, relevant, k), kind.uses_history and len(history) == 0))
    n = len(results)
    return EvalReport(
        k=k,
        phase=phase,
        precision=functools.reduce(operator.add, (r.precision for r in results), 0.0) / n,
        recall=functools.reduce(operator.add, (r.recall for r in results), 0.0) / n,
        ndcg=functools.reduce(operator.add, (r.ndcg for r in results), 0.0) / n,
        map=functools.reduce(operator.add, (r.ap for r in results), 0.0) / n,
        mrr=functools.reduce(operator.add, (r.rr for r in results), 0.0) / n,
        median_popularity=median_popularity([r.ranked for r in results], split.train),
        num_evaluated_users=n,
        num_empty_history=sum(r.empty_history for r in results),
        per_user=results,
    )


# ---------------------------------------------------------------------------
# Planted-cluster generator, one ``choice(p=...)`` per draw
# ---------------------------------------------------------------------------


def planted_clusters_loop(
    num_users: int = 500,
    num_items: int = 300,
    n_clusters: int = 10,
    interactions_per_user: int = 30,
    noise: float = 0.1,
    seed: int = 0,
) -> InteractionDataset:
    """The planted-cluster generator as one ``choice(n_pref, p=weights)`` per
    preferred-cluster draw and a set of pair tuples; ``planted_clusters`` must
    return the same pairs and keys."""
    if num_items % n_clusters != 0:
        raise ValueError("num_items must be divisible by n_clusters")
    if not 0 <= noise <= 1:
        raise ValueError(f"noise must be in [0, 1], got {noise}")
    gen = np.random.default_rng(seed)
    cluster_size = num_items // n_clusters
    pairs: set[tuple[int, int]] = set()
    for u in range(num_users):
        n_pref = int(gen.integers(2, 4))
        prefs = gen.choice(n_clusters, size=n_pref, replace=False)
        weights = gen.dirichlet(np.ones(n_pref) * 2.0)
        for _ in range(interactions_per_user):
            if gen.random() < noise:
                v = int(gen.integers(num_items))
            else:
                c = int(prefs[gen.choice(n_pref, p=weights)])
                v = c * cluster_size + int(gen.integers(cluster_size))
            pairs.add((u, v))
    user_keys = [f"u{u}" for u in range(num_users)]
    item_keys = [f"i{v}" for v in range(num_items)]
    return InteractionDataset(num_users, num_items, sorted(pairs), user_keys, item_keys)
