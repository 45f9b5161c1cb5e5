"""Full-catalog top-K ranking and the six ranking metrics.

Every non-excluded item is scored for every evaluated user (no sampled
candidate shortcut). Users whose phase view holds no relevant items are
skipped rather than scored as zeros. Ratio metrics are kept in [0, 1]
internally; the human-readable table multiplies by 100.

:func:`evaluate` ranks its users in blocks: per block, one (users, catalog)
exclusion mask scattered from the CSR rows of the excluded views, one
(users, catalog) distance matrix, one 2-D :func:`top_k` and the five
metrics from one (users, K) hit matrix (:func:`hit_metrics`). The distances
are one call per head family over the whole catalog:
:func:`models.catalog_distances` for ``cml`` and ``lrml``, and
:func:`models.history_distances` for the history heads, which decides on
its own which users share the first level of the ``hlr``/``hlr++``
hierarchy. Every row is the bits its user gets alone, so
:func:`rank_items`, which ``recommend`` calls, ranks one user from its
:func:`models.candidate_distances` row over the catalog with the same
top-K, and a user's list is the one :func:`evaluate` ranks. The per-user
metric functions stay as the readable reference that the hit-matrix
metrics equal bit for bit.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import models, rng
from .datasets import InteractionDataset, SplitDataset, _Rows, item_history, user_history
from .models import ModelKind, candidate_distances, catalog_distances, history_distances
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
    """Top-k non-excluded items by ascending distance, ties by item index:
    the one-row case of :func:`top_k`, over the user's
    :func:`models.candidate_distances` row of the whole catalog.

    ``exclusions`` holds the item indices removed from the candidate set, in
    any order and with repeats; indices outside ``[0, num_items)`` are
    ignored. ``history``/``item_histories`` carry the attention support sets
    for history-based kinds. ``item_histories`` is either the rows over the
    catalog that :func:`item_history_table` builds, or a list aligned with
    the candidate order (ascending item index minus exclusions). Raises
    ``ValueError`` for ``k < 1``, for a list of another length and for a
    user outside ``[0, num_users)``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    exclusions = np.asarray(exclusions, dtype=np.int64)
    excluded = np.zeros((1, store.num_items), dtype=bool)
    excluded[0, exclusions[(exclusions >= 0) & (exclusions < store.num_items)]] = True
    if item_histories is not None and not isinstance(item_histories, _Rows):
        # Ranking reads rows over the catalog; an excluded item's row is empty.
        candidates = np.flatnonzero(~excluded[0])
        if len(item_histories) != len(candidates):
            raise ValueError(f"item_histories has {len(item_histories)} entries for {len(candidates)} candidates")
        rows = [_EMPTY] * store.num_items
        for v, h in zip(candidates.tolist(), item_histories):
            rows[v] = h
        item_histories = _Rows.of(rows)
    # perfbench's tracer wraps this module's candidate_distances and counts its second positional argument.
    distances = candidate_distances(user, np.arange(store.num_items), kind, store, history, item_histories)
    ranked = top_k(distances[None], excluded, k)[0]
    return ranked[ranked >= 0]


def top_k(distances: np.ndarray, excluded: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` nearest non-excluded items of every row of the (U, C)
    ``distances``, as a (U, min(k, C)) array of item indices, in the order a
    full ``lexsort`` of each row's candidates by (distance, item index)
    gives: ties by item index, NaN after every number. A row with fewer
    than ``k`` candidates ends in -1 after its last one. An excluded entry is
    never returned, and its distance is never read: it is overwritten with
    NaN in place.

    Only a row's candidates at or below its k-th smallest distance are
    sorted. A row whose k-th value is NaN (fewer than ``k`` candidates with
    a number) is sorted whole.
    """
    rows, items = distances.shape
    # An excluded entry reads NaN, so the partition puts it after every number.
    np.copyto(distances, np.nan, where=excluded)
    bounded = np.zeros(rows, dtype=bool)
    if k < items:
        kth = np.partition(distances, k - 1, axis=1)[:, k - 1 : k]
        bounded = ~np.isnan(kth[:, 0])
        if bounded.all():
            return _top_k_at_or_below(distances, kth, k)
    ranked = np.full((rows, min(k, items)), -1, dtype=np.int64)
    if bounded.any():
        ranked[bounded] = _top_k_at_or_below(distances[bounded], kth[bounded], k)
    whole = np.flatnonzero(~bounded)
    # A stable sort by (excluded, distance) orders ties, NaNs included, by item index.
    order = np.lexsort((distances[whole], excluded[whole]), axis=1)[:, : ranked.shape[1]]
    count = items - excluded[whole].sum(axis=1, keepdims=True)
    ranked[whole] = np.where(np.arange(ranked.shape[1]) < count, order, -1)
    return ranked


def _top_k_at_or_below(distances: np.ndarray, kth: np.ndarray, k: int) -> np.ndarray:
    """:func:`top_k` of rows whose k-th smallest distance ``kth`` (U, 1) is a
    number: the entries at or below it, sorted by distance and item index."""
    take = distances <= kth
    rows, items = np.nonzero(take)  # ascending item index within a row
    if len(items) > take.shape[0] * k:
        # Some row's ties at the k-th value straddle k: take them in item order, as many as fit.
        over = np.flatnonzero(take.sum(axis=1) > k)
        ties = distances[over] == kth[over]
        room = k - (distances[over] < kth[over]).sum(axis=1, keepdims=True)
        take[over] &= ~ties | (np.cumsum(ties, axis=1) <= room)
        rows, items = np.nonzero(take)
    rows, items = rows.reshape(-1, k), items.reshape(-1, k)
    return items[rows, np.argsort(distances[rows, items], axis=1, kind="stable")]


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
    dcg = 0.0
    for i, v in enumerate(ranked[:k]):
        if v in relevant:
            dcg += 1.0 / math.log2(i + 2)
    idcg = 0.0
    for i in range(min(len(relevant), k)):
        idcg += 1.0 / math.log2(i + 2)
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


def hit_metrics(hits: np.ndarray, num_relevant: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """Precision, recall, NDCG, AP and RR at ``k`` of every row of the
    (U, W) boolean ``hits``, W <= k, where ``hits[u, i]`` tells whether the
    item ranked i-th for row u is relevant and ``num_relevant[u]`` counts
    the row's relevant items. Each value equals its per-user metric
    function's bit for bit: the same ``math.log2`` discounts, the same
    divisions, and sums taken left to right over the ranks (``cumsum``;
    a miss adds 0.0, which leaves a sum unchanged)."""
    width = hits.shape[1]
    ideal = np.minimum(num_relevant, k)
    gains = np.array([1.0 / math.log2(i + 2) for i in range(max(width, int(ideal.max(initial=0))))])
    count = hits.sum(axis=1)
    dcg = np.cumsum(np.where(hits, gains[:width], 0.0), axis=1)[:, -1]
    idcg = np.cumsum(gains)[ideal - 1]
    precision_at_hits = np.cumsum(hits, axis=1) / np.arange(1, width + 1)
    ap = np.cumsum(np.where(hits, precision_at_hits, 0.0), axis=1)[:, -1] / ideal
    rr = np.where(count > 0, 1.0 / (hits.argmax(axis=1) + 1), 0.0)
    return count / k, count / num_relevant, dcg / idcg, ap, rr


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


def _row_mask(rows: _Rows, users: np.ndarray, width: int, out: np.ndarray | None = None) -> np.ndarray:
    """The (users, width) boolean mask with row i set at the entries of
    ``rows[users[i]]``: one scatter from the CSR rows, with no loop over
    users. ``out`` is set in place when given."""
    picked = rows.take(users)
    mask = np.zeros((len(users), width), dtype=bool) if out is None else out
    mask[np.repeat(np.arange(len(users)), picked.lengths), picked.values] = True
    return mask


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
    split seed, so repeated evaluation of a frozen store is deterministic.
    Users are ranked in blocks of ascending index (see the module
    docstring); every row is ranked and scored on its own, so the blocking
    never changes a result. With ``workers`` > 1 the blocks, at least one
    per worker, are ranked in parallel and aggregated in a fixed order.
    Raises ``ValueError`` for ``k < 1``, a negative ``history_cap`` and
    ``workers < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if history_cap < 0:
        raise ValueError(f"history_cap must be >= 0, got {history_cap}")
    if phase not in PHASES:
        raise ValueError(f"phase must be one of {PHASES}, got {phase!r}")
    check_compatible(store, kind, split)
    view = split.validation if phase == "validation" else split.test
    users = np.flatnonzero(view.user_items.lengths > 0)
    if not len(users):
        raise EvaluationError(f"no users with relevant items in the {phase} view")

    item_table = item_history_table(split, history_cap) if kind.uses_item_memory else None
    num_items = split.num_items

    def rank_block(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        excluded = _row_mask(split.train.user_items, block, num_items)
        if phase == "test":
            _row_mask(split.validation.user_items, block, num_items, out=excluded)
        if kind.uses_history:
            histories = _Rows.of([ranking_history(split, u, kind, history_cap) for u in block.tolist()])
            distances = history_distances(block, histories, kind, store, item_table)
            empty_history = histories.lengths == 0
        else:
            distances = catalog_distances(block, kind, store)
            empty_history = np.zeros(len(block), dtype=bool)
        ranked = top_k(distances, excluded, k)
        valid = ranked >= 0
        at = (np.arange(len(block))[:, None], ranked)
        leaked = excluded[at] & valid
        if leaked.any():
            i = int(leaked.any(axis=1).argmax())
            raise EvaluationError(f"excluded items {ranked[i, leaked[i]].tolist()} recommended to user {block[i]}")
        hits = _row_mask(view.user_items, block, num_items)[at] & valid
        return ranked, hits, empty_history

    # Blocks of users whose (users, catalog) arrays hold about one ranking
    # budget each; with workers, at least one block per worker.
    size = max(1, models._RANK_BLOCK_ELEMENTS // max(num_items, 1))
    if workers > 1:
        size = min(size, -(-len(users) // workers))
    blocks = [users[start : start + size] for start in range(0, len(users), size)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(rank_block, blocks))
    else:
        results = [rank_block(block) for block in blocks]
    ranked = np.concatenate([r[0] for r in results])
    hits = np.concatenate([r[1] for r in results])
    empty_history = np.concatenate([r[2] for r in results]).tolist()
    metrics = [m.tolist() for m in hit_metrics(hits, view.user_items.lengths[users], k)]

    n = len(users)
    per_user = None
    if verbose:
        lists = ranked.tolist()
        if (ranked < 0).any():
            lists = [[v for v in row if v >= 0] for row in lists]
        per_user = [UserEval(u, *values) for u, *values in zip(users.tolist(), lists, *metrics, empty_history)]
    # Means are left-to-right sums over users in ascending index order, as the per-user reference
    # takes them; sum() would not do, as it compensates float sums from Python 3.12 on.
    precision, recall, ndcg, ap, rr = (functools.reduce(operator.add, values, 0.0) / n for values in metrics)
    return EvalReport(
        k=k,
        phase=phase,
        precision=precision,
        recall=recall,
        ndcg=ndcg,
        map=ap,
        mrr=rr,
        median_popularity=median_popularity([ranked[ranked >= 0].tolist()], split.train),
        num_evaluated_users=n,
        num_empty_history=sum(empty_history),
        per_user=per_user,
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
