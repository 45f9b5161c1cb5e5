"""Full-catalog top-K ranking and the six ranking metrics.

Every non-excluded item is scored for every evaluated user (no sampled
candidate shortcut). Users whose phase view holds no relevant items are
skipped rather than scored as zeros. Ratio metrics are kept in [0, 1]
internally; the human-readable table multiplies by 100.
"""
from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from .datasets import InteractionDataset, SplitDataset, _Rows, item_history, user_history
from .models import ModelKind, candidate_distances
from .parameters import ParameterStore

_EMPTY = np.empty(0, dtype=np.int64)

PHASES = ("validation", "test")


class EvaluationError(Exception):
    """Evaluation could not produce a report (e.g. no evaluable users)."""


@dataclass
class UserEval:
    """Per-user ranking outcome (kept only in verbose reports)."""

    user: int
    ranked: list[int]
    precision: float
    recall: float
    ndcg: float
    ap: float
    rr: float
    empty_history: bool = False


@dataclass
class EvalReport:
    """Metric means over evaluated users at one cutoff."""

    k: int
    phase: str
    precision: float
    recall: float
    ndcg: float
    map: float
    mrr: float
    median_popularity: float
    num_evaluated_users: int
    num_empty_history: int  # users of a history kind ranked with an empty history
    per_user: list[UserEval] | None = None


def rank_items(
    user: int,
    store: ParameterStore,
    kind: ModelKind,
    exclusions: np.ndarray,
    k: int,
    *,
    history: np.ndarray | None = None,
    item_histories: _Rows | Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Top-k non-excluded items by ascending distance, ties by item index.

    ``exclusions`` holds the item indices removed from the candidate set, in
    any order and with repeats; indices outside ``[0, num_items)`` are
    ignored. ``history``/``item_histories`` carry the attention support sets
    for history-based kinds. ``item_histories`` is either the rows over the
    catalog that :func:`item_history_table` builds, or a list aligned with
    the candidate order (ascending item index minus exclusions). Raises
    ``ValueError`` for ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    exclusions = np.asarray(exclusions, dtype=np.int64)
    keep = np.ones(store.num_items, dtype=bool)
    keep[exclusions[(exclusions >= 0) & (exclusions < store.num_items)]] = False
    candidates = np.flatnonzero(keep)
    if len(candidates) == 0:
        return _EMPTY
    distances = candidate_distances(user, candidates, kind, store, history, item_histories)
    return candidates[_top_k(candidates, distances, k)]


def _top_k(candidates: np.ndarray, distances: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` smallest distances, ties by candidate, as a
    full ``lexsort`` would give them: only the candidates at or below the
    k-th smallest distance are sorted. NaN distances sort last, so a NaN
    k-th distance sorts them all."""
    if k < len(distances):
        kth = np.partition(distances, k - 1)[k - 1]
        if not np.isnan(kth):
            head = np.flatnonzero(distances <= kth)
            return head[np.lexsort((candidates[head], distances[head]))[:k]]
    return np.lexsort((candidates, distances))[:k]


# ---------------------------------------------------------------------------
# Metrics (binary relevance, cutoff k)
# ---------------------------------------------------------------------------


def _require_relevant(relevant: set[int]) -> None:
    if not relevant:
        raise ValueError("relevant set must be non-empty; skip such users instead")


def precision_recall_at_k(ranked: Sequence[int], relevant: set[int], k: int) -> tuple[float, float]:
    """(hits/k, hits/|relevant|) over the first k ranked items."""
    _require_relevant(relevant)
    hits = sum(1 for v in ranked[:k] if v in relevant)
    return hits / k, hits / len(relevant)


def ndcg_at_k(ranked: Sequence[int], relevant: set[int], k: int) -> float:
    """DCG with 1/log2(i+1) gains over an ideal prefix of min(|relevant|, k)."""
    _require_relevant(relevant)
    dcg = sum(1.0 / math.log2(i + 2) for i, v in enumerate(ranked[:k]) if v in relevant)
    ideal = min(len(relevant), k)
    idcg = sum(1.0 / math.log2(i + 2) for i in range(ideal))
    return dcg / idcg


def map_at_k(ranked: Sequence[int], relevant: set[int], k: int) -> float:
    """Average precision at k: mean of precision@i over hit positions i,
    normalized by min(|relevant|, k)."""
    _require_relevant(relevant)
    hits = 0
    acc = 0.0
    for i, v in enumerate(ranked[:k], start=1):
        if v in relevant:
            hits += 1
            acc += hits / i
    return acc / min(len(relevant), k)


def mrr_at_k(ranked: Sequence[int], relevant: set[int], k: int) -> float:
    """Reciprocal rank of the first hit within the top k, else 0."""
    _require_relevant(relevant)
    for i, v in enumerate(ranked[:k], start=1):
        if v in relevant:
            return 1.0 / i
    return 0.0


def median_popularity(topk_lists: Sequence[Sequence[int]], train: InteractionDataset) -> float:
    """Lower median of train-set item degree pooled over every recommended
    slot (with multiplicity) across all users."""
    items = np.fromiter(itertools.chain.from_iterable(topk_lists), dtype=np.int64)
    if len(items) == 0:
        return 0.0
    degrees = np.sort(train.item_users.lengths[items])
    return float(degrees[(len(degrees) - 1) // 2])


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------


def ranking_history(split: SplitDataset, u: int, kind: ModelKind, cap: int) -> np.ndarray:
    """The user history that ranking attends over: the train items of ``u``,
    subsampled to ``cap`` from the user's ``EVALUATION`` substream. A list
    that fits the cap is used whole, so its stream is never derived. Kinds
    without a user history get an empty array."""
    if not kind.uses_history:
        return _EMPTY
    gen = rng.substream(split.seed, rng.EVALUATION, 0, u) if len(split.train.user_items[u]) > cap else None
    return user_history(split, u, cap=cap, gen=gen)


def _exclusion_sets(split: SplitDataset, phase: str) -> Callable[[int], np.ndarray]:
    if phase == "validation":
        return lambda u: split.train.user_items[u]
    return lambda u: np.concatenate([split.train.user_items[u], split.validation.user_items[u]])


def item_history_table(split: SplitDataset, cap: int) -> _Rows:
    """The ``hlr++`` item histories that ranking attends over, as rows over
    the catalog: row ``v`` holds the train users of ``v``, and an item with
    more than ``cap`` of them holds ``item_history``'s subsample drawn from
    the item's ``EVALUATION`` substream. The rows are cut by one keep-mask
    over the item-major train users, and only the items over the cap derive
    a stream."""
    users = split.train.item_users
    keep = np.ones(len(users.values), dtype=bool)
    for v in np.flatnonzero(users.lengths > cap).tolist():
        start, row = int(users.starts[v]), users[v]
        drawn = item_history(split, v, cap=cap, gen=rng.substream(split.seed, rng.EVALUATION, 1, v))
        keep[start : start + len(row)] = False
        keep[start + np.searchsorted(row, drawn)] = True
    return _Rows(users.values[keep], np.minimum(users.lengths, cap))


def check_compatible(store: ParameterStore, kind: ModelKind, split: SplitDataset) -> None:
    """Raise ``ValueError`` unless ``store`` has ``split``'s users and items
    and holds every tensor ``kind`` reads."""
    if (store.num_users, store.num_items) != (split.num_users, split.num_items):
        raise ValueError(
            f"checkpoint shape ({store.num_users} users, {store.num_items} items) does not match "
            f"dataset shape ({split.num_users} users, {split.num_items} items)"
        )
    if kind.uses_item_memory and not store.has_item_memory:
        raise ValueError(f"model {kind.value} needs item-side memory tensors absent from the checkpoint")


def evaluate(
    store: ParameterStore,
    kind: ModelKind,
    split: SplitDataset,
    phase: str = "test",
    k: int = 10,
    *,
    history_cap: int = 50,
    workers: int = 1,
    verbose: bool = False,
) -> EvalReport:
    """Rank the full non-excluded catalog for every user with relevant items
    in ``phase`` and average the metrics.

    Exclusions are the user's train items (validation phase) or train plus
    validation items (test phase). History subsampling is seeded from the
    split seed, so repeated evaluation of a frozen store is deterministic;
    with ``workers`` > 1 users are ranked in parallel and aggregated in a
    fixed order. Raises ``ValueError`` for ``k < 1`` and a negative
    ``history_cap``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if history_cap < 0:
        raise ValueError(f"history_cap must be >= 0, got {history_cap}")
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    check_compatible(store, kind, split)
    view = split.validation if phase == "validation" else split.test
    exclusions_for = _exclusion_sets(split, phase)
    users = np.flatnonzero(view.user_items.lengths > 0).tolist()
    if not users:
        raise EvaluationError(f"no users with relevant items in the {phase} view")

    item_table = item_history_table(split, history_cap) if kind.uses_item_memory else None

    def eval_user(u: int) -> UserEval:
        history = ranking_history(split, u, kind, history_cap)
        exclusions = exclusions_for(u)
        ranked = rank_items(u, store, kind, exclusions, k, history=history, item_histories=item_table)
        leaked = (ranked[:, None] == exclusions).any(axis=1)  # a k x |exclusions| test, cheaper than np.isin
        if leaked.any():
            raise EvaluationError(f"excluded items {ranked[leaked].tolist()} recommended to user {u}")
        ranked_list = [int(v) for v in ranked]
        relevant = set(int(v) for v in view.user_items[u])
        p, r = precision_recall_at_k(ranked_list, relevant, k)
        return UserEval(
            user=u,
            ranked=ranked_list,
            precision=p,
            recall=r,
            ndcg=ndcg_at_k(ranked_list, relevant, k),
            ap=map_at_k(ranked_list, relevant, k),
            rr=mrr_at_k(ranked_list, relevant, k),
            empty_history=kind.uses_history and len(history) == 0,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(eval_user, users))
    else:
        results = [eval_user(u) for u in users]

    n = len(results)
    return EvalReport(
        k=k,
        phase=phase,
        precision=sum(r.precision for r in results) / n,
        recall=sum(r.recall for r in results) / n,
        ndcg=sum(r.ndcg for r in results) / n,
        map=sum(r.ap for r in results) / n,
        mrr=sum(r.rr for r in results) / n,
        median_popularity=median_popularity([r.ranked for r in results], split.train),
        num_evaluated_users=n,
        num_empty_history=sum(r.empty_history for r in results),
        per_user=results if verbose else None,
    )


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

_METRIC_ROWS = ("precision", "recall", "ndcg", "map", "mrr")


def report_csv(report: EvalReport) -> str:
    """Machine-readable metric,value rows (ratios kept raw in [0, 1])."""
    lines = ["metric,value", f"k,{report.k}", f"phase,{report.phase}"]
    for name in _METRIC_ROWS:
        lines.append(f"{name},{getattr(report, name):.12g}")
    lines.append(f"median_popularity,{report.median_popularity:.12g}")
    lines.append(f"num_evaluated_users,{report.num_evaluated_users}")
    lines.append(f"num_empty_history,{report.num_empty_history}")
    return "\n".join(lines) + "\n"


def report_table(report: EvalReport) -> str:
    """Aligned table with ratio metrics scaled by 100, two decimals."""
    labels = {
        "precision": f"P@{report.k}",
        "recall": f"R@{report.k}",
        "ndcg": f"NDCG@{report.k}",
        "map": f"MAP@{report.k}",
        "mrr": f"MRR@{report.k}",
    }
    rows = [(labels[name], f"{getattr(report, name) * 100:.2f}") for name in _METRIC_ROWS]
    rows.append(("Popularity", f"{report.median_popularity:g}"))
    rows.append(("Users", str(report.num_evaluated_users)))
    width = max(len(label) for label, _ in rows)
    vwidth = max(len(val) for _, val in rows)
    lines = [f"{label:<{width}}  {val:>{vwidth}}" for label, val in rows]
    return "\n".join(lines) + "\n"
