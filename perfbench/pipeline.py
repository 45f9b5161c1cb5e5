"""The benchmark's workloads and the pipeline pass each of them runs.

Every workload runs the whole pipeline in each pass: set-up, ``preprocess``
through the CLI, one-epoch training of the five heads, full-catalog
evaluation of the five heads, and single-user ``recommend`` calls through the
CLI. Running every stage on every workload means every metric is measured on
every workload; the workloads differ in input shape, and that decides which
layer does most of the work. Every operation's outcome is checked, and the
untraced pass also runs the model checks.

All inputs are drawn from the workload seed. The program only ever sees those
generated inputs: planted splits, a ratings file, dataset directories and
checkpoints.

Every timed sample is scaled to a fixed machine speed (see
:class:`SpeedScale`): the end-to-end metrics are medians of scaled samples,
and the unscaled figures are reported beside them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from cmlrec import cli, rng
from cmlrec.datasets import (
    InteractionDataset,
    SplitDataset,
    item_history,
    load_split_dir,
    save_split_dir,
    user_history,
)
from cmlrec.evaluation import EvaluationError, evaluate, rank_items
from cmlrec.models import ModelKind, RelationContext, batch_distances, score
from cmlrec.parameters import init_parameters, save_checkpoint
from cmlrec.synthetic import planted_split
from cmlrec.training import Hyperparams, train
from tracing import NullTracer, Tracer, patched

HEADS = tuple(ModelKind)
RECOMMEND_HEAD = ModelKind.HLRPP


def head_name(kind: ModelKind) -> str:
    """Metric-name spelling of a head: ``hlr++`` becomes ``hlrpp``."""
    return kind.value.replace("+", "p")


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape plus how much of each stage runs on it.

    ``setup`` names what ``setup_s`` times:
    ``planted``: ``planted_split``; ``planted+init``: ``planted_split`` plus
    seeded ``init_parameters`` for every head, whose stores are then ranked
    untrained; ``cli-train``: the ``train`` command on the preprocessed
    ratings file, whose checkpoint ``recommend`` then serves.
    """

    name: str
    why: str  # the reason for the workload; BENCHMARK.json repeats it
    setup: str
    users: int
    items: int
    clusters: int
    per_user: int  # planted interactions per user (positives of the ratings file)
    low_ratings: int  # extra ratings of 1-3 per user in the ratings file
    k_core: int  # preprocess k-core order
    # A pass is a series of rounds, run until the pass has lasted the run's
    # seconds and at least ``blocks`` rounds. Every round runs preprocess,
    # ranks one of ``blocks`` fixed blocks of the test users with every head
    # and makes its share of the recommend calls; set-up and the one-epoch
    # training of each head run every round, or every few rounds where their
    # cost calls for it. Each metric's samples are thus spread over the pass.
    blocks: int = 6
    eval_parts: int = 3  # evaluate calls, one timed sample each, that rank a block
    setup_every: int = 1  # set-up runs in rounds 0, n, 2n, ...
    train_every: tuple[int, ...] = (1, 1, 1, 1, 1)  # per head, in HEADS order
    eval_users: int = 0  # test users to rank; 0 means every test user
    min_recommend: int = 100  # p90 needs 10 samples beyond it
    checks_pairs: int = 12  # (user, item) pairs per head for batch_distances vs score
    checks_users: int = 2  # users per head for rank_items vs brute force
    dim: int = 32
    n_relations: int = 10
    batch_size: int = 50
    history_cap: int = 50
    lr: float = 0.001
    k: int = 10


# BENCHMARK.json lists train-planted and rank-catalog. cli-recommend runs with
# --workload cli-recommend or all; a third workload of the length that steady
# figures need does not fit the time budget for a benchmark's runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-planted",
            why="criterion-4 planted data (500 x 300, d=32, N=10, batch 50), ROADMAP's yardstick: "
            "training the five heads does most of the work",
            setup="planted",
            users=500, items=300, clusters=10, per_user=30, low_ratings=10, k_core=10,
            blocks=4,
        ),
        Workload(
            name="rank-catalog",
            why="100 users x 2000 items ranked by untrained seeded stores: candidate scoring, exclusion, "
            "top-K and the hlr++ item-history table do most of the work",
            setup="planted+init",
            users=100, items=2000, clusters=20, per_user=30, low_ratings=10, k_core=1,
            eval_parts=2,
        ),
        Workload(
            name="cli-recommend",
            why="a 1000 x 1000 ratings file through the CLI: preprocess, train, and single-user "
            "recommend calls that each reload data and checkpoint",
            setup="cli-train",
            users=1000, items=1000, clusters=20, per_user=12, low_ratings=30, k_core=3,
            eval_users=60, setup_every=3, train_every=(1, 1, 3, 3, 3),
        ),
    )
}


@dataclass
class PassResult:
    """Outcome of one pipeline pass."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # name -> (value, unit, n)
    raw_metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)  # the same, unscaled
    recorded: dict[str, float] = field(default_factory=dict)  # reported, never gated
    digests: dict[str, str] = field(default_factory=dict)  # results that tracing must not change
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    rounds: int = 0  # rounds the pass ran
    samples: dict[str, object] = field(default_factory=dict)  # every sample behind the metrics, raw and scaled
    wall_s: float = 0.0  # the timed part of the pass, checks excluded
    stage_s: dict[str, float] = field(default_factory=dict)  # wall seconds per pipeline stage

    def scaled_wall_s(self) -> float:
        """``wall_s`` at the reference speed, by the pass's mean reference time."""
        return self.wall_s * REFERENCE_SECONDS / statistics.fmean(self.samples["reference_s"])

    def op(self, ok: bool, what: str) -> bool:
        """Count one operation or check; remember it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()[:16]


def _dir_digest(path: str) -> str:
    """Digest of a dataset directory; ``config.txt`` echoes the output path."""
    h = hashlib.sha256()
    for name in sorted(set(os.listdir(path)) - {"config.txt"}):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _cli(tracer, span: str, argv: list[str]) -> tuple[int, str, float]:
    """Run one CLI command in-process; returns (exit code, output, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = tracer.call(span, cli.main, argv)
        seconds = time.perf_counter() - t0
    if code != 0:
        tracer.fail(span)
    return code, out.getvalue() + err.getvalue(), seconds


def write_ratings(split: SplitDataset, w: Workload, seed: int, path: str) -> None:
    """Ratings file of the planted interactions: positives rate 4-5, and
    ``low_ratings`` random pairs per user rate 1-3, in shuffled row order."""
    gen = np.random.default_rng([seed, 0x5EED])
    rows = []
    for view in (split.train, split.validation, split.test):
        pairs = view.pair_array()
        ratings = gen.integers(4, 6, size=len(pairs))
        rows.extend(zip(pairs[:, 0].tolist(), pairs[:, 1].tolist(), ratings.tolist()))
    low_users = np.repeat(np.arange(split.num_users), w.low_ratings)
    low_items = gen.integers(split.num_items, size=len(low_users))
    low = gen.integers(1, 4, size=len(low_users))
    rows.extend(zip(low_users.tolist(), low_items.tolist(), low.tolist()))
    order = gen.permutation(len(rows))
    ukeys, ikeys = split.train.user_keys, split.train.item_keys
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user\titem\trating\n")
        for i in order:
            u, v, r = rows[i]
            fh.write(f"{ukeys[u]}\t{ikeys[v]}\t{r}\n")


def _user_blocks(split: SplitDataset, n_blocks: int, limit: int, seed: int) -> list[SplitDataset]:
    """Copies of the split whose test views hold disjoint seeded blocks of
    the test users; ``limit`` > 0 caps the users over all blocks."""
    test = split.test
    users = [u for u in range(split.num_users) if len(test.user_items[u]) > 0]
    users = np.random.default_rng([seed, 0x7E57]).permutation(users)
    if limit:
        users = users[:limit]
    blocks = []
    for b in range(n_blocks):
        pairs = [(int(u), int(v)) for u in sorted(users[b::n_blocks]) for v in test.user_items[u]]
        view = InteractionDataset.from_pairs(split.num_users, split.num_items, pairs, test.user_keys, test.item_keys)
        blocks.append(SplitDataset(train=split.train, validation=split.validation, test=view, seed=split.seed))
    return blocks


def _hyperparams(w: Workload, kind: ModelKind, seed: int) -> Hyperparams:
    return Hyperparams(kind=kind, dim=w.dim, n_relations=w.n_relations, margin=0.5, lr=w.lr,
                       batch_size=w.batch_size, max_epochs=1, history_cap=w.history_cap, seed=seed)


def _train_args(w: Workload, data_dir: str, out_dir: str, seed: int) -> list[str]:
    return ["train", "--data", data_dir, "--out", out_dir, "--model", RECOMMEND_HEAD.value,
            "--dim", str(w.dim), "--n-relations", str(w.n_relations), "--batch-size", str(w.batch_size),
            "--lr", str(w.lr), "--history-cap", str(w.history_cap), "--max-epochs", "1",
            "--seed", str(seed), "--workers", "1"]


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def check_batch_distances(split: SplitDataset, kind: ModelKind, store, w: Workload, seed: int) -> bool:
    """``batch_distances`` agrees with the reference ``score`` on sampled pairs."""
    gen = np.random.default_rng([seed, 0xC4EC, HEADS.index(kind)])
    pairs = split.train.pair_array()
    contexts = []
    for idx in gen.choice(len(pairs), size=min(w.checks_pairs, len(pairs)), replace=False):
        u = int(pairs[idx, 0])
        for v in (int(pairs[idx, 1]), int(gen.integers(split.num_items))):
            hist = user_history(split, u, exclude=v, cap=w.history_cap, gen=gen) if kind.uses_history else None
            ihist = item_history(split, v, exclude=u, cap=w.history_cap, gen=gen) if kind.uses_item_memory else None
            contexts.append(RelationContext(
                user=u, item=v,
                history=hist if hist is not None else np.empty(0, dtype=np.int64),
                item_history=ihist if ihist is not None else np.empty(0, dtype=np.int64)))
    batched = batch_distances(contexts, kind, store)
    reference = np.array([score(c, kind, store).distance for c in contexts])
    return bool(np.allclose(batched, reference, rtol=1e-9, atol=1e-12))


def check_rank_items(split: SplitDataset, kind: ModelKind, store, w: Workload, seed: int) -> bool:
    """``rank_items`` top-K equals a brute-force sort of ``score`` distances
    (ties by item index) for sampled test users, and leaks no excluded item.
    Histories are drawn exactly as ``evaluate`` draws them."""
    gen = np.random.default_rng([seed, 0x7A4C, HEADS.index(kind)])
    users = [u for u in range(split.num_users) if len(split.test.user_items[u]) > 0]
    empty = np.empty(0, dtype=np.int64)
    for u in gen.choice(users, size=min(w.checks_users, len(users)), replace=False).tolist():
        exclusions = np.union1d(split.train.user_items[u], split.validation.user_items[u])
        history = empty
        if kind.uses_history:
            history = user_history(split, u, cap=w.history_cap, gen=rng.substream(split.seed, rng.EVALUATION, 0, u))
        candidates = np.setdiff1d(np.arange(split.num_items, dtype=np.int64), exclusions)
        item_hists = None
        if kind.uses_item_memory:
            item_hists = [item_history(split, int(v), cap=w.history_cap,
                                       gen=rng.substream(split.seed, rng.EVALUATION, 1, int(v)))
                          for v in candidates]
        ranked = rank_items(u, store, kind, exclusions, w.k, history=history, item_histories=item_hists)
        dists = [
            score(RelationContext(user=u, item=int(v), history=history,
                                  item_history=item_hists[i] if item_hists is not None else empty), kind, store).distance
            for i, v in enumerate(candidates)
        ]
        brute = [int(v) for _, v in sorted(zip(dists, candidates.tolist()))[: w.k]]
        if [int(v) for v in ranked] != brute or np.isin(ranked, exclusions).any():
            return False
    return True


def _check_recommend(output: str, key: str, split: SplitDataset, k: int) -> bool:
    """K ranked lines of distinct items the user has not interacted with."""
    lines = [ln.split("\t") for ln in output.splitlines() if ln.startswith(key + "\t")]
    if len(lines) != k or [int(r) for _, r, _ in lines] != list(range(1, k + 1)):
        return False
    item_index = split.train.item_index
    items = [item_index.get(item, -1) for _, _, item in lines]
    seen = split.all_user_items(split.train.user_index[key])
    return min(items) >= 0 and len(set(items)) == k and not np.isin(items, seen).any()


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# Nominal seconds of ``reference_seconds``: about the median of its runs on a
# 2-vCPU VM with OpenBLAS 0.3.31 and one BLAS thread. Timed samples are
# scaled to this speed.
REFERENCE_SECONDS = 0.008


def _reference_work(gen: np.random.Generator) -> float:
    """A fixed mix of interpreter work, small numpy operations and text
    parsing, like the pipeline's own, that the program under test never runs."""
    total = 0.0
    counts: dict[int, int] = {}
    for i in range(3000):
        counts[i % 31] = counts.get(i % 31, 0) + i
    users = gen.standard_normal((120, 32))
    items = gen.standard_normal((300, 32))
    for u in users:
        dist = ((items - u) ** 2).sum(axis=1)
        top = np.lexsort((np.arange(len(dist)), dist))[:10]
        total += float(dist[top].sum())
    rows = [line.split("\t") for line in (f"u{i}\ti{i * 7 % 301}\t{i % 5 + 1}" for i in range(2400))]
    total += sum(int(r[2]) for r in rows)
    return total + len(counts)


def reference_seconds() -> float:
    """Seconds the machine takes for the reference work now: the fastest of
    three runs, so that one interrupted run does not count."""
    best = float("inf")
    for _ in range(3):
        gen = np.random.default_rng(0x5BEED)
        t0 = time.perf_counter()
        _reference_work(gen)
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedScale:
    """Scales timed samples to the machine speed of :data:`REFERENCE_SECONDS`.

    A shared machine switches between a fast and a slow state, about 1.4
    times slower, for seconds at a time, the same for every stage of the
    pipeline; a run's raw times depend on the share of it spent slow. So the
    reference work is timed just before and just after every timed
    operation, and the operation's seconds are multiplied by
    ``REFERENCE_SECONDS`` over the mean of the two. Raw samples are kept too.
    """

    FRESH = 0.05  # seconds for which a reference time still stands for "now"

    def __init__(self) -> None:
        self.references: list[float] = []
        self.raw: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}
        self._at = -float("inf")
        self._before = self._last = 0.0

    def _now(self) -> float:
        self._last = reference_seconds()
        self._at = time.perf_counter()
        self.references.append(self._last)
        return self._last

    def before(self) -> None:
        """Call just before a timed operation."""
        self._before = self._last if time.perf_counter() - self._at < self.FRESH else self._now()

    def add(self, name: str, seconds: float) -> None:
        """Call just after the operation :meth:`before` preceded."""
        factor = REFERENCE_SECONDS / ((self._before + self._now()) / 2)
        self.raw.setdefault(name, []).append(seconds)
        self.scaled.setdefault(name, []).append(seconds * factor)


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def run_pass(w: Workload, seed: int, tracer, workdir: str, min_seconds: float,
             rounds: int | None = None, checks: bool = True) -> PassResult:
    """Run the whole pipeline once, as a series of rounds (see
    :class:`Workload`): ``rounds`` of them, or else as many as start within
    ``min_seconds`` and at least ``w.blocks``. Round 0 runs every stage,
    since later rounds serve its checkpoint.
    ``checks`` runs the model checks after the timed part; they call the
    layers directly.
    """
    res = PassResult()
    os.makedirs(workdir)
    t_pass = time.perf_counter()
    speed = SpeedScale()
    seen: dict[str, set[str]] = {}
    tsv = os.path.join(workdir, "ratings.tsv")
    data0 = os.path.join(workdir, "data0")
    split = data_dir = ckpt = blocks = None
    stores: dict[ModelKind, object] = {}
    eval_rows: dict[ModelKind, dict[int, tuple]] = {kind: {} for kind in HEADS}
    eval_users: dict[str, list[int]] = {}
    outputs: list[list[str]] = []
    stage_s: dict[str, float] = {}
    calls_per_round = -(-w.min_recommend // w.blocks)

    def stage(name: str, t0: float) -> None:
        stage_s[name] = stage_s.get(name, 0.0) + time.perf_counter() - t0

    if w.setup == "cli-train":
        planted = tracer.call("synthetic.planted_split", planted_split,
                              w.users, w.items, w.clusters, w.per_user, seed=seed)
        write_ratings(planted, w, seed, tsv)

    r = 0
    while (r < rounds) if rounds is not None else (r < w.blocks or time.perf_counter() - t_pass < min_seconds):
        # -- set-up (planted) and preprocess --------------------------------
        t_stage = time.perf_counter()
        sample_setup = r % w.setup_every == 0
        if sample_setup and w.setup != "cli-train":
            speed.before()
            t0 = time.perf_counter()
            split_r = tracer.call("synthetic.planted_split", planted_split,
                                  w.users, w.items, w.clusters, w.per_user, seed=seed)
            seeded = {}
            if w.setup == "planted+init":
                for kind in HEADS:
                    seeded[kind] = tracer.call(
                        "parameters.init_parameters", init_parameters, split_r.num_users, split_r.num_items,
                        w.dim, w.n_relations, with_item_memory=kind.uses_item_memory, seed=seed)
            speed.add("setup_s", time.perf_counter() - t0)
            # Later rounds rank with the stores made last, not those of round
            # 0: they hold the same values at other addresses, so the speed of
            # one memory layout does not decide the run's figures.
            stores.update(seeded)
            if r == 0:
                split = split_r
                write_ratings(split, w, seed, tsv)
        data_r = os.path.join(workdir, f"data{r}")
        speed.before()
        code, _, seconds = _cli(tracer, "cli.preprocess", [
            "preprocess", "--input", tsv, "--out", data_r, "--threshold", "4",
            "--k-core", str(w.k_core), "--seed", str(seed)])
        if res.op(code == 0, f"preprocess exit {code}"):
            speed.add("preprocess_s", seconds)
            seen.setdefault("preprocess", set()).add(_dir_digest(data_r))
        if r > 0:
            shutil.rmtree(data_r)

        # -- set-up (CLI train) -------------------------------------------
        if sample_setup and w.setup == "cli-train":
            run_dir = os.path.join(workdir, f"train{r}")
            speed.before()
            code, _, seconds = _cli(tracer, "cli.train", _train_args(w, data0, run_dir, seed))
            if res.op(code == 0, f"train command exit {code}"):
                speed.add("setup_s", seconds)
                seen.setdefault("train_command", set()).add(_file_digest(os.path.join(run_dir, "model.ckpt")))
            if r == 0:
                data_dir, ckpt = data0, os.path.join(run_dir, "model.ckpt")
                split, _meta = tracer.call("datasets.load_split_dir", load_split_dir, data0)
            else:
                shutil.rmtree(run_dir)
        stage("setup+preprocess", t_stage)

        # -- training -----------------------------------------------------
        t_stage = time.perf_counter()
        for kind in HEADS:
            if r % w.train_every[HEADS.index(kind)]:
                continue
            name = head_name(kind)
            speed.before()
            try:
                store, report = tracer.call("training.train", train, split, _hyperparams(w, kind, seed))
            except (ArithmeticError, ValueError) as exc:
                res.op(False, f"train {kind.value}: {exc}")
                continue
            losses = report.train_losses + report.valid_losses
            ok = not report.diverged and report.num_epochs == 1 and bool(np.isfinite(losses).all())
            if res.op(ok, f"train {kind.value} diverged or non-finite loss: {report.diagnostics}"):
                for seconds in report.epoch_seconds:
                    speed.add(f"train_epoch_s.{name}", seconds)
                res.recorded[f"final_train_loss.{name}"] = report.train_losses[-1]
                if w.setup != "planted+init":
                    stores[kind] = store
            seen.setdefault(f"losses.{name}", set()).add(
                _digest(report.train_losses, report.valid_losses, report.best_epoch))
        if r == 0:
            blocks = _user_blocks(split, w.blocks * w.eval_parts, w.eval_users, seed)
            if w.setup != "cli-train" and RECOMMEND_HEAD in stores:
                data_dir = os.path.join(workdir, "served")
                tracer.call("datasets.save_split_dir", save_split_dir, split, data_dir, k=w.k_core, threshold=4.0)
                ckpt = os.path.join(workdir, "served.ckpt")
                tracer.call("parameters.save_checkpoint", save_checkpoint, stores[RECOMMEND_HEAD], ckpt)
        stage("train", t_stage)

        # -- evaluation: this round's block of test users, in parts ----------
        t_stage = time.perf_counter()
        first = r % w.blocks * w.eval_parts
        for b, kind in itertools.product(range(first, first + w.eval_parts), stores):
            name = head_name(kind)
            speed.before()
            t0 = time.perf_counter()
            try:
                report = tracer.call("evaluation.evaluate", evaluate, stores[kind], kind, blocks[b], "test", w.k,
                                     history_cap=w.history_cap, workers=1, verbose=True)
            except (ArithmeticError, ValueError, EvaluationError) as exc:
                res.op(False, f"evaluate {kind.value}: {exc}")
                continue
            speed.add(f"eval_s.{name}", time.perf_counter() - t0)
            res.op(True, "")
            tracer.count("evaluation.users", report.num_evaluated_users)
            eval_users.setdefault(name, []).append(report.num_evaluated_users)
            row = (report.num_evaluated_users, report.recall, report.precision, report.ndcg, report.map,
                   report.mrr, report.median_popularity, [u.ranked for u in report.per_user or []])
            eval_rows[kind].setdefault(b, row)
            seen.setdefault(f"eval.{name}.block{b}", set()).add(_digest(row))
        stage("evaluate", t_stage)

        # -- recommend: this round's share of the calls ---------------------
        t_stage = time.perf_counter()
        if ckpt is not None:
            keys = split.train.user_keys
            order = np.random.default_rng([seed, 0x4EC]).permutation(len(keys))
            for _ in range(calls_per_round):
                key = keys[order[len(outputs) % len(keys)]]
                speed.before()
                code, out, seconds = _cli(tracer, "cli.recommend", [
                    "recommend", "--checkpoint", ckpt, "--data", data_dir, "--model", RECOMMEND_HEAD.value,
                    "--users", key, "--k", str(w.k), "--history-cap", str(w.history_cap)])
                speed.add("recommend_s", seconds)
                outputs.append([ln for ln in out.splitlines() if ln.startswith(key + "\t")])
                res.op(code == 0 and _check_recommend(out, key, split, w.k), f"recommend {key}: exit {code}")
        stage("recommend", t_stage)
        r += 1
    res.rounds = r

    # -- results --------------------------------------------------------------
    for name, digests in seen.items():
        res.op(len(digests) == 1, f"{name} differs between rounds")
        res.digests[name] = ",".join(sorted(digests))
    res.digests["recommend"] = _digest(outputs)
    res.metrics = summarise(speed.scaled, eval_users)
    res.raw_metrics = summarise(speed.raw, eval_users)
    for kind, rows in eval_rows.items():
        if rows:
            n = sum(row[0] for row in rows.values())
            res.recorded[f"test_recall_at_{w.k}.{head_name(kind)}"] = sum(row[0] * row[1] for row in rows.values()) / n
            res.digests[f"eval.{head_name(kind)}"] = _digest(sorted(rows.items()))
    res.samples = {"scaled": speed.scaled, "raw": speed.raw, "reference_s": speed.references}
    res.wall_s = time.perf_counter() - t_pass

    t_stage = time.perf_counter()
    if checks:
        for kind, store in stores.items():
            res.op(check_batch_distances(split, kind, store, w, seed), f"batch_distances != score for {kind.value}")
            res.op(check_rank_items(split, kind, store, w, seed), f"rank_items != brute force for {kind.value}")
    stage_s["checks"] = time.perf_counter() - t_stage
    res.stage_s = stage_s
    return res


def summarise(samples: dict[str, list[float]], eval_users: dict[str, list[int]]) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics of one pass's timed samples as ``name -> (value, unit, n)``:
    medians of the times, the median of the per-round evaluation throughputs,
    and the 50th and 90th percentiles of the recommend latencies."""
    metrics = {}
    for name, values in samples.items():
        if not name.startswith(("eval_s.", "recommend_s")):
            metrics[name] = (statistics.median(values), "s", len(values))
    for name, users in eval_users.items():
        per_round = [n / s for n, s in zip(users, samples[f"eval_s.{name}"])]
        metrics[f"eval_users_per_s.{name}"] = (statistics.median(per_round), "users/s", sum(users))
    latencies = [s * 1000.0 for s in samples.get("recommend_s", [])]
    if len(latencies) >= 2:
        metrics["recommend_p50_ms"] = (statistics.median(latencies), "ms", len(latencies))
        metrics["recommend_p90_ms"] = (statistics.quantiles(latencies, n=10)[8], "ms", len(latencies))
    return metrics


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, out_root: str):
    """Untraced pass, and with ``trace`` a traced pass of as many rounds
    after it. The traced pass skips the model checks, whose results it must
    reproduce anyway.

    Returns (untraced result, traced result or None, tracer or None).
    """
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-", dir=out_root)
    try:
        plain = run_pass(w, seed, NullTracer(), os.path.join(workdir, "plain"), seconds)
        if not trace:
            return plain, None, None
        tracer = Tracer(run_id=f"{w.name}-seed{seed}")
        with patched(tracer):
            traced = run_pass(w, seed, tracer, os.path.join(workdir, "traced"), seconds,
                              rounds=plain.rounds, checks=False)
        return plain, traced, tracer
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
