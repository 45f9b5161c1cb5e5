"""Triplet sampling, the training loop, and grid search.

Training minimizes the summed triplet hinge loss with lazy Adam updates and
unit-ball projection of the touched embedding rows. Model selection is per
epoch on a fixed validation triplet sample (best epoch = first minimum of
the validation loss); grid search ranks configurations by validation
NDCG@10.
"""
from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import rng
from .datasets import SplitDataset, item_history, user_history
from .models import (
    ModelKind,
    NonFiniteScoreError,
    RelationContext,
    TripletBatch,
    backward,
    batch_distances,
)
from .parameters import (
    ITEM_VECS,
    USER_VECS,
    AdamState,
    NonFiniteGradientError,
    ParameterStore,
    adam_step,
    init_parameters,
    project_unit_ball,
)

logger = logging.getLogger(__name__)

_EMPTY = np.empty(0, dtype=np.int64)


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
        if self.margin <= 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        # lr = 0 is admitted as the null update (no-op training run).
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.history_cap < 0:
            raise ValueError(f"history_cap must be >= 0, got {self.history_cap}")
        if self.n_relations < 1:
            raise ValueError(f"n_relations must be >= 1, got {self.n_relations}")


class Triplet(NamedTuple):
    user: int
    pos: int
    neg: int


@dataclass
class TrainReport:
    """Per-epoch history of one training run."""

    train_losses: list[float] = field(default_factory=list)
    valid_losses: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    best_epoch: int = -1
    diverged: bool = False
    diagnostics: str | None = None
    checkpoint_path: str | None = None

    @property
    def num_epochs(self) -> int:
        return len(self.train_losses)


def _draw_negative(gen: np.random.Generator, num_items: int, seen: np.ndarray) -> int:
    """Uniform item with (u, item) outside ``seen``; caller guarantees one exists."""
    while True:
        j = int(gen.integers(num_items))
        pos = np.searchsorted(seen, j)
        if pos >= len(seen) or seen[pos] != j:
            return j


def sample_triplets(split: SplitDataset, gen: np.random.Generator) -> Iterator[Triplet]:
    """One epoch of triplets: each train positive once, in shuffled order,
    paired with a negative drawn uniformly outside the user's full
    interaction set (train, validation, and test). Users interacting with
    every item are skipped with a warning."""
    train = split.train
    num_items = train.num_items
    pairs = train.pair_array()
    if len(pairs) == 0:
        raise ValueError("train view is empty; nothing to sample")
    order = gen.permutation(len(pairs))
    warned: set[int] = set()
    for idx in order:
        u, v = int(pairs[idx, 0]), int(pairs[idx, 1])
        seen = split.all_user_items(u)
        if len(seen) >= num_items:
            if u not in warned:
                warned.add(u)
                logger.warning("user %d interacts with every item; no negative exists, skipping", u)
            continue
        yield Triplet(u, v, _draw_negative(gen, num_items, seen))


def _contexts(
    split: SplitDataset,
    user: int,
    pos: int,
    neg: int,
    kind: ModelKind,
    cap: int,
    gen: np.random.Generator,
) -> tuple[RelationContext, RelationContext]:
    """Context pair for one triplet; the history draw is shared across the
    positive and negative side to reduce gradient variance."""
    hist = user_history(split, user, exclude=pos, cap=cap, gen=gen) if kind.uses_history else _EMPTY
    if kind.uses_item_memory:
        ih_pos = item_history(split, pos, exclude=user, cap=cap, gen=gen)
        ih_neg = item_history(split, neg, exclude=user, cap=cap, gen=gen)
    else:
        ih_pos = ih_neg = _EMPTY
    return (
        RelationContext(user=user, item=pos, history=hist, item_history=ih_pos),
        RelationContext(user=user, item=neg, history=hist, item_history=ih_neg),
    )


def _epoch_batches(
    split: SplitDataset, hp: Hyperparams, sample_gen: np.random.Generator, hist_gen: np.random.Generator
) -> Iterator[TripletBatch]:
    pos_ctxs: list[RelationContext] = []
    neg_ctxs: list[RelationContext] = []
    for t in sample_triplets(split, sample_gen):
        p, n = _contexts(split, t.user, t.pos, t.neg, hp.kind, hp.history_cap, hist_gen)
        pos_ctxs.append(p)
        neg_ctxs.append(n)
        if len(pos_ctxs) == hp.batch_size:
            yield TripletBatch(pos_ctxs, neg_ctxs)
            pos_ctxs, neg_ctxs = [], []
    if pos_ctxs:
        yield TripletBatch(pos_ctxs, neg_ctxs)


def _validation_batch(split: SplitDataset, hp: Hyperparams) -> TripletBatch | None:
    """Fixed per-run validation triplets: every validation positive paired
    with a negative (and history draws) from a dedicated seeded stream, so
    epoch-over-epoch loss comparisons use one sample."""
    gen = rng.substream(hp.seed, rng.VALIDATION_NEGATIVES)
    num_items = split.train.num_items
    pos_ctxs: list[RelationContext] = []
    neg_ctxs: list[RelationContext] = []
    for u, v in split.validation.iter_pairs():
        seen = split.all_user_items(u)
        if len(seen) >= num_items:
            continue
        neg = _draw_negative(gen, num_items, seen)
        p, n = _contexts(split, u, v, neg, hp.kind, hp.history_cap, gen)
        pos_ctxs.append(p)
        neg_ctxs.append(n)
    if not pos_ctxs:
        return None
    return TripletBatch(pos_ctxs, neg_ctxs)


def _hinge_mean(batch: TripletBatch, kind: ModelKind, store: ParameterStore, margin: float) -> float:
    d_pos = batch_distances(batch.pos, kind, store)
    d_neg = batch_distances(batch.neg, kind, store)
    return float(np.maximum(0.0, d_pos - d_neg + margin).mean())


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
    epoch with the lowest validation loss (first minimum on ties). On
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
                adam_step(store, grads, adam, hp.lr)
                project_unit_ball(store, user_rows=grads.rows(USER_VECS), item_rows=grads.rows(ITEM_VECS))
                total += loss
                count += len(batch)
            train_loss = total / max(count, 1)
            valid_loss = _hinge_mean(val_batch, hp.kind, store, hp.margin) if val_batch is not None else 0.0
            if not (np.isfinite(train_loss) and np.isfinite(valid_loss)):
                raise NonFiniteScoreError(0, -1, -1)
        except (NonFiniteScoreError, NonFiniteGradientError) as exc:
            report.diverged = True
            report.diagnostics = f"aborted at epoch {epoch}: {exc}"
            logger.warning("training diverged: %s", report.diagnostics)
            break
        seconds = time.perf_counter() - t0
        report.train_losses.append(train_loss)
        report.valid_losses.append(valid_loss)
        report.epoch_seconds.append(seconds)
        last_finite = store.copy()
        if valid_loss < best_loss:
            best_loss = valid_loss
            best_store = last_finite
            report.best_epoch = epoch
        if log_fn is not None:
            log_fn(epoch, train_loss, valid_loss, seconds)

    if best_store is None:
        best_store = last_finite
        report.best_epoch = max(report.best_epoch, 0) if report.num_epochs else -1
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
    best_report: TrainReport | None
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
    does not stop the search. Ties in NDCG keep enumeration order.
    """
    from .evaluation import evaluate  # local import to avoid a module cycle

    cells = grid_cells(base.kind, lr_grid, n_grid, margin_grid, default_n=base.n_relations)
    ranked: list[GridCell] = []
    failed: list[GridCell] = []
    best_cell: GridCell | None = None
    best_store: ParameterStore | None = None
    best_report: TrainReport | None = None
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
            if best_cell is None or (cell.ndcg is not None and cell.ndcg > (best_cell.ndcg or -1.0)):
                best_cell, best_store, best_report = cell, store, run_report
        except Exception as exc:
            cell = GridCell(params=params, status="failed", note=str(exc))
            failed.append(cell)
            logger.warning("grid cell %d/%d failed: %s", i + 1, len(cells), exc)
        if log_fn is not None:
            log_fn(i, len(cells), cell)
    ranked.sort(key=lambda c: -(c.ndcg if c.ndcg is not None else -np.inf))
    return GridSearchResult(
        best_params=best_cell.params if best_cell else None,
        best_store=best_store,
        best_report=best_report,
        leaderboard=ranked,
        failed=failed,
    )
