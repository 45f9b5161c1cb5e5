"""Triplet sampling, the training loop, and grid search.

Training minimizes the summed triplet hinge loss with lazy Adam updates and
unit-ball projection of the touched embedding rows. Model selection is per
epoch on a fixed validation triplet sample (best epoch = first minimum of
the validation loss, or the last epoch when there are no validation
triplets); grid search ranks configurations by validation
NDCG@10.
"""
from __future__ import annotations

import itertools
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from . import rng
from .datasets import InteractionDataset, SplitDataset, _Rows
from .evaluation import EvaluationError, evaluate
from .models import (
    _BACKWARD_CHUNK,
    ModelKind,
    NonFiniteScoreError,
    TripletBatch,
    _triplet_slack,
    backward,
    batch_distances,
)
from .parameters import (
    AdamState,
    NonFiniteGradientError,
    ParameterStore,
    adam_step,
    init_parameters,
    project_unit_ball,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Hyperparams:
    """Training configuration for one run."""

    kind: ModelKind = ModelKind.CML
    dim: int = 100
    n_relations: int = 10
    margin: float = 0.5
    lr: float = 0.001
    batch_size: int = 1000
    max_epochs: int = 100
    history_cap: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValueError(f"margin must be finite and > 0, got {self.margin}")
        # lr = 0 is admitted as the null update (no-op training run).
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.history_cap < 0:
            raise ValueError(f"history_cap must be >= 0, got {self.history_cap}")
        if self.n_relations < 1:
            raise ValueError(f"n_relations must be >= 1, got {self.n_relations}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    """Per-epoch history of one training run."""

    train_losses: list[float] = field(default_factory=list)
    valid_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1
    diverged: bool = False
    diagnostics: str | None = None

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses)


class NonFiniteLossError(FloatingPointError):
    """An epoch's mean train or validation loss was NaN or infinite."""

    def __init__(self, which: str, value: float):
        super().__init__(f"non-finite {which} loss {value!r}")
        self.which = which
        self.value = value


# ---------------------------------------------------------------------------
# Triplet sampling
# ---------------------------------------------------------------------------


def _saturated(split: SplitDataset, users: np.ndarray) -> np.ndarray:
    """Mask of the entries of ``users`` that interact with every item, so
    that no negative exists for them."""
    counts = np.bincount(split.pair_keys() // split.num_items, minlength=split.num_users)
    return counts[users] >= split.num_items


def _negatives(split: SplitDataset, users: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """One uniform item per entry of ``users`` outside that user's
    interaction set (train, validation and test): a vector draw, then
    redraws of the rejected entries only, until none is left. Every user
    must have such an item."""
    num_items = split.num_items
    keys = split.pair_keys()
    neg = gen.integers(num_items, size=len(users))
    todo = np.arange(len(users))
    while len(todo):
        drawn = users[todo] * num_items + neg[todo]
        at = np.minimum(np.searchsorted(keys, drawn), len(keys) - 1)
        todo = todo[keys[at] == drawn]
        neg[todo] = gen.integers(num_items, size=len(todo))
    return neg


def sample_triplets(
    split: SplitDataset, gen: np.random.Generator, batch_size: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One epoch of triplets as ``(users, positives, negatives)`` arrays of
    at most ``batch_size`` entries: each train positive once, in the order
    of one permutation, paired with a negative drawn uniformly outside the
    user's full interaction set (train, validation and test). The users who
    interact with every item are skipped, with one warning each, before
    the negatives of the whole epoch are drawn at once."""
    pairs = split.train.pair_array()
    if len(pairs) == 0:
        raise ValueError("train view is empty; nothing to sample")
    order = gen.permutation(len(pairs))
    users, pos = pairs[order, 0], pairs[order, 1]
    saturated = _saturated(split, users)
    if saturated.any():
        for u in np.unique(users[saturated]).tolist():
            logger.warning("user %d interacts with every item; no negative exists, skipping", u)
        users, pos = users[~saturated], pos[~saturated]
    neg = _negatives(split, users, gen)
    for start in range(0, len(users), batch_size):
        part = slice(start, start + batch_size)
        yield users[part], pos[part], neg[part]


# ---------------------------------------------------------------------------
# History draws
# ---------------------------------------------------------------------------


def _draw_rows(
    table: _Rows, rows: np.ndarray, exclude: np.ndarray, cap: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of ``table`` without ``exclude[i]`` in row ``i``, each
    subsampled uniformly to at most ``cap`` members: zero-padded ids and
    their mask, trimmed to the widest row (and to ``cap``).

    A row over the cap keeps the members with the ``cap`` smallest random
    keys; padding and the excluded member get keys above every member's.
    Random keys, one per slot of the widest row of the call, are drawn only
    when some row is wider than ``cap``. The rows are padded in blocks of
    ``_BACKWARD_CHUNK``, so the temporaries hold (block x widest row) slots
    however many rows the call draws.
    """
    width = max(int(table.lengths[rows].max(initial=0)), 1)
    cols = width if width <= cap else max(cap, 1)  # cap 0 keeps one masked slot
    ids = np.zeros((len(rows), cols), dtype=np.int64)
    mask = np.zeros((len(rows), cols), dtype=bool)
    for start in range(0, len(rows), _BACKWARD_CHUNK):
        part = slice(start, start + _BACKWARD_CHUNK)
        block, block_mask = table.padded(rows[part], width)
        block_mask &= block != exclude[part, None]
        if width > cap:
            keys = gen.random(block.shape)
            keys[~block_mask] = 2.0
            keep = np.sort(np.argpartition(keys, cap, axis=1)[:, :cols], axis=1)
            block = np.take_along_axis(block, keep, axis=1)
            block_mask = np.take_along_axis(block_mask, keep, axis=1) & (cap > 0)
        ids[part], mask[part] = block, block_mask
    return ids, mask


def user_history(
    table: _Rows, users: np.ndarray, exclude: np.ndarray, cap: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """User histories of one batch: row ``i`` holds the train items of
    ``users[i]`` other than ``exclude[i]``, capped (see :func:`_draw_rows`).
    ``datasets.user_history`` is the one-row reference."""
    return _draw_rows(table, users, exclude, cap, gen)


def item_history(
    table: _Rows, items: np.ndarray, exclude: np.ndarray, cap: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``hlr++`` item histories of one batch: row ``i`` holds the train users
    of ``items[i]`` other than ``exclude[i]``, capped (see :func:`_draw_rows`).
    ``datasets.item_history`` is the one-row reference."""
    return _draw_rows(table, items, exclude, cap, gen)


def _batch(
    users: np.ndarray,
    pos: np.ndarray,
    neg: np.ndarray,
    view: InteractionDataset,
    hp: Hyperparams,
    gen: np.random.Generator,
) -> TripletBatch:
    """The triplets with the histories that ``hp.kind`` reads, drawn from the
    train ``view``. The positive and the negative share one user-history
    row, which reduces gradient variance; the item histories of both sides
    are one draw."""
    batch = TripletBatch(users=users, items=np.array((pos, neg)))
    if hp.kind.uses_history:
        batch.hist, batch.hist_mask = user_history(view.user_items, users, pos, hp.history_cap, gen)
    if hp.kind.uses_item_memory:
        ihist, mask = item_history(view.item_users, batch.items.reshape(-1), np.tile(users, 2), hp.history_cap, gen)
        batch.ihist, batch.ihist_mask = ihist.reshape(2, len(users), -1), mask.reshape(2, len(users), -1)
    return batch


def _epoch_batches(
    split: SplitDataset,
    hp: Hyperparams,
    sample_gen: np.random.Generator,
    hist_gen: np.random.Generator,
) -> Iterator[TripletBatch]:
    for users, pos, neg in sample_triplets(split, sample_gen, hp.batch_size):
        yield _batch(users, pos, neg, split.train, hp, hist_gen)


def _validation_batch(split: SplitDataset, hp: Hyperparams) -> TripletBatch | None:
    """Fixed per-run validation triplets: every validation positive paired
    with a negative (and history draws) from a dedicated seeded stream, so
    epoch-over-epoch loss comparisons use one sample."""
    gen = rng.substream(hp.seed, rng.VALIDATION_NEGATIVES)
    pairs = split.validation.pair_array()
    keep = ~_saturated(split, pairs[:, 0])
    users, pos = pairs[keep, 0], pairs[keep, 1]
    if len(users) == 0:
        return None
    return _batch(users, pos, _negatives(split, users, gen), split.train, hp, gen)


def _hinge_mean(batch: TripletBatch, kind: ModelKind, store: ParameterStore, margin: float) -> float:
    """Mean triplet hinge over ``batch``, scored in passes of
    ``_BACKWARD_CHUNK`` rows, both sides of half as many triplets, so that
    the forward temporaries stay small. Raises :class:`NonFiniteScoreError`
    naming the first triplet with a non-finite distance."""
    hinges = []
    step = max(_BACKWARD_CHUNK // 2, 1)
    for start in range(0, len(batch), step):
        chunk = batch[start : start + step]
        slack = _triplet_slack(batch_distances(chunk, kind, store), chunk, margin, start)
        hinges.append(np.maximum(0.0, slack))
    return float(np.concatenate(hinges).mean())


LogFn = Callable[[int, float, float, float], None]


def train(
    split: SplitDataset,
    hp: Hyperparams,
    *,
    log_fn: LogFn | None = None,
) -> tuple[ParameterStore, TrainReport]:
    """Run the full training loop and return the best-epoch checkpoint.

    Per epoch: freshly sampled triplets are batched, backward gradients are
    applied with lazy Adam, and every touched embedding row is projected
    back into the unit ball. The returned store is the snapshot from the
    epoch with the lowest validation loss (first minimum on ties), or from
    the last epoch when there are no validation triplets, whose loss then
    reads 0.0 in every epoch. On
    divergence the loop aborts and returns the last finite snapshot with
    ``report.diverged`` set and a diagnostic message.
    """
    hp.validate()
    if split.train.num_interactions == 0:
        raise ValueError("train view is empty")
    store = init_parameters(
        split.train.num_users,
        split.train.num_items,
        hp.dim,
        hp.n_relations,
        with_item_memory=hp.kind.uses_item_memory,
        seed=hp.seed,
    )
    adam = AdamState.for_store(store)
    val_batch = _validation_batch(split, hp)
    if val_batch is None:
        logger.warning("no validation triplets (the validation view is empty, or its users hold every item): "
                       "the last epoch is kept as the best")
    report = TrainReport()
    best_loss = np.inf
    best_store: ParameterStore | None = None
    last_finite = store.copy()

    for epoch in range(hp.max_epochs):
        t0 = time.perf_counter()
        sample_gen = rng.substream(hp.seed, rng.SAMPLING, epoch)
        hist_gen = rng.substream(hp.seed, rng.HISTORY, epoch)
        total = 0.0
        count = 0
        try:
            for batch in _epoch_batches(split, hp, sample_gen, hist_gen):
                grads, loss = backward(batch, hp.kind, store, hp.margin)
                project_unit_ball(store, adam_step(store, grads, adam, hp.lr))
                total += loss
                count += len(batch)
            train_loss = total / max(count, 1)
            valid_loss = _hinge_mean(val_batch, hp.kind, store, hp.margin) if val_batch is not None else 0.0
            for which, loss in (("train", train_loss), ("validation", valid_loss)):
                if not np.isfinite(loss):
                    raise NonFiniteLossError(which, loss)
        except (NonFiniteScoreError, NonFiniteLossError, NonFiniteGradientError) as exc:
            report.diverged = True
            report.diagnostics = f"aborted at epoch {epoch}: {exc}"
            logger.warning("training diverged: %s", report.diagnostics)
            break
        seconds = time.perf_counter() - t0
        report.train_losses.append(train_loss)
        report.valid_losses.append(valid_loss)
        report.epoch_seconds.append(seconds)
        last_finite = store.copy()
        if val_batch is None or valid_loss < best_loss:
            best_loss = valid_loss
            best_store = last_finite
            report.best_epoch = epoch
        if log_fn is not None:
            log_fn(epoch, train_loss, valid_loss, seconds)

    if best_store is None:
        best_store = last_finite
    return best_store, report


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


@dataclass
class GridCell:
    params: Hyperparams
    status: str  # "ok" or "failed"
    ndcg: float | None = None
    valid_loss: float | None = None
    best_epoch: int | None = None
    note: str | None = None


@dataclass
class GridSearchResult:
    best_params: Hyperparams | None
    best_store: ParameterStore | None
    leaderboard: list[GridCell]  # non-failed cells, best NDCG first
    failed: list[GridCell]


def grid_cells(
    kind: ModelKind,
    lr_grid: Sequence[float],
    n_grid: Sequence[int],
    margin_grid: Sequence[float],
    default_n: int = 10,
) -> list[tuple[float, int, float]]:
    """Enumerate (lr, n_relations, margin) combinations for one model kind.

    Kinds without a relation memory ignore the N axis: it collapses to the
    single default so the search does not repeat identical runs.
    """
    if not lr_grid or not margin_grid or (kind.uses_memory and not n_grid):
        raise ValueError("grid axes must be non-empty")
    ns = list(n_grid) if kind.uses_memory else [default_n]
    return [(float(lr), int(n), float(m)) for lr, n, m in itertools.product(lr_grid, ns, margin_grid)]


def grid_search(
    split: SplitDataset,
    base: Hyperparams,
    lr_grid: Sequence[float],
    n_grid: Sequence[int],
    margin_grid: Sequence[float],
    *,
    eval_k: int = 10,
    log_fn: Callable[[int, int, GridCell], None] | None = None,
) -> GridSearchResult:
    """Train one model per grid point and rank them by validation NDCG.

    A cell whose run raises or diverges is marked failed and skipped; it
    does not stop the search. Ties in NDCG keep enumeration order. Raises
    :class:`EvaluationError` before training any cell when no user has a
    validation item, since no cell could then be ranked.
    """
    cells = grid_cells(base.kind, lr_grid, n_grid, margin_grid, default_n=base.n_relations)
    if not split.validation.user_items.lengths.any():
        raise EvaluationError("no users with relevant items in the validation view; grid search ranks cells by it")
    ranked: list[GridCell] = []
    failed: list[GridCell] = []
    best_cell: GridCell | None = None
    best_store: ParameterStore | None = None
    for i, (lr, n, margin) in enumerate(cells):
        params = replace(base, lr=lr, n_relations=n, margin=margin)
        try:
            store, run_report = train(split, params)
            if run_report.diverged or run_report.best_epoch < 0:
                raise ArithmeticError(run_report.diagnostics or "no finite epoch completed")
            eval_report = evaluate(store, params.kind, split, phase="validation", k=eval_k,
                                   history_cap=params.history_cap)
            cell = GridCell(
                params=params,
                status="ok",
                ndcg=eval_report.ndcg,
                valid_loss=run_report.valid_losses[run_report.best_epoch],
                best_epoch=run_report.best_epoch,
            )
            ranked.append(cell)
            if best_cell is None or cell.ndcg > best_cell.ndcg:
                best_cell, best_store = cell, store
        except Exception as exc:
            cell = GridCell(params=params, status="failed", note=str(exc))
            failed.append(cell)
            logger.warning("grid cell %d/%d failed: %s", i + 1, len(cells), exc)
        if log_fn is not None:
            log_fn(i, len(cells), cell)
    ranked.sort(key=lambda c: -c.ndcg)
    return GridSearchResult(
        best_params=best_cell.params if best_cell else None,
        best_store=best_store,
        leaderboard=ranked,
        failed=failed,
    )
