"""Span recording around calls into the cmlrec layers.

The benchmark records spans from its own files only: it replaces the module
attributes that the layers look up (for example ``cmlrec.training.backward``)
with timing wrappers for the length of a traced pass and puts the originals
back afterwards. Nothing under ``src/`` changes.

A span has a name, a start, an end, a parent span and a run id. Spans are kept
in memory in flat arrays and written out when the run ends. A span's self time
is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
import types
from array import array
from collections import Counter
from typing import Callable, Iterator

import numpy as np

LAYERS = ("synthetic", "datasets", "training", "models", "parameters", "evaluation", "cli")


def _allocated_rows(store) -> int:
    """Rows that ``SparseGradients`` allocates and zeroes for ``store`` each step."""
    return sum(t.shape[0] for t in store.tensors().values())


def _adam_counts(tracer: "Tracer", args, kwargs, result) -> None:
    store, grads = args[0], args[1]
    tracer.count("parameters.grad_rows", len(grads))
    tracer.count("parameters.allocated_rows", _allocated_rows(store))


def _pair_counts(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("models.candidate_pairs", len(args[1]))


def _checkpoint_size(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("parameters.checkpoint_bytes_loaded", os.path.getsize(args[0]))


# (module, attribute, span name, kind, hook). ``kind`` is "call" for a plain
# function, "gen" for a generator whose ``next`` calls are timed one by one
# (its hook names the counter of yielded items), and "rng" for a module's
# reference to ``cmlrec.rng``, whose ``substream`` calls are timed: evaluation
# and the CLI derive one stream per history draw, and deriving it costs more
# than the draw.
PATCHES = (
    ("cmlrec.training", "_epoch_batches", "training.epoch_batches", "gen", "training.batches"),
    ("cmlrec.training", "sample_triplets", "training.sample_triplets", "gen", "training.triplets"),
    ("cmlrec.training", "user_history", "training.history", "call", None),
    ("cmlrec.training", "item_history", "training.history", "call", None),
    ("cmlrec.training", "backward", "models.backward", "call", None),
    ("cmlrec.training", "batch_distances", "training.validation", "call", None),
    ("cmlrec.training", "adam_step", "parameters.adam_step", "call", _adam_counts),
    ("cmlrec.training", "project_unit_ball", "parameters.project_unit_ball", "call", None),
    ("cmlrec.evaluation", "rank_items", "evaluation.rank_items", "call", None),
    ("cmlrec.evaluation", "candidate_distances", "models.candidate_distances", "call", _pair_counts),
    ("cmlrec.evaluation", "rng", "evaluation.history", "rng", None),
    ("cmlrec.evaluation", "user_history", "evaluation.history", "call", None),
    ("cmlrec.evaluation", "item_history", "evaluation.history", "call", None),
    ("cmlrec.evaluation", "precision_recall_at_k", "evaluation.metrics", "call", None),
    ("cmlrec.evaluation", "ndcg_at_k", "evaluation.metrics", "call", None),
    ("cmlrec.evaluation", "map_at_k", "evaluation.metrics", "call", None),
    ("cmlrec.evaluation", "mrr_at_k", "evaluation.metrics", "call", None),
    ("cmlrec.evaluation", "median_popularity", "evaluation.metrics", "call", None),
    ("cmlrec.cli", "load_interactions", "datasets.load_interactions", "call", None),
    ("cmlrec.cli", "k_core_filter", "datasets.k_core_filter", "call", None),
    ("cmlrec.cli", "split_dataset", "datasets.split_dataset", "call", None),
    ("cmlrec.cli", "save_split_dir", "datasets.save_split_dir", "call", None),
    ("cmlrec.cli", "load_split_dir", "datasets.load_split_dir", "call", None),
    ("cmlrec.cli", "save_checkpoint", "parameters.save_checkpoint", "call", None),
    ("cmlrec.cli", "load_checkpoint", "parameters.load_checkpoint", "call", _checkpoint_size),
    ("cmlrec.cli", "train", "training.train", "call", None),
    ("cmlrec.cli", "rng", "cli.item_history_table", "rng", None),
    ("cmlrec.cli", "item_history", "cli.item_history_table", "call", None),
    ("cmlrec.cli", "rank_items", "evaluation.rank_items", "call", None),
)


class Tracer:
    """In-memory span recorder with per-layer failure counts.

    Spans live in flat arrays (name id, parent index, start, end) so that a
    traced pass with hundreds of thousands of calls stays small.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: list[int] = [-1]
        self.counters: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def fail(self, name: str) -> None:
        self.failed[name.split(".", 1)[0]] += 1

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.fail(name)
            raise
        finally:
            self.close(idx)

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable, item_counter: str) -> Callable:
        """Time every ``next`` of the generators ``fn`` returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs) -> Iterator:
            inner = fn(*args, **kwargs)
            try:
                while True:
                    idx = tracer.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.fail(name)
                        raise
                    finally:
                        tracer.close(idx)
                    tracer.count(item_counter)
                    yield item
            finally:
                inner.close()

        return traced

    # -- analysis ------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_ids, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = s["name_id"] == nid
            out[name] = (int(sel.sum()), float(dur[sel].sum()), float(self_time[sel].sum()))
        return out

    def save(self, path: str) -> None:
        np.savez_compressed(path, run_id=np.array(self.run_id), names=np.array(self.names), **self.spans())


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Install the tracing wrappers of :data:`PATCHES`; restore on exit."""
    saved = []
    try:
        for module_name, attr, name, kind, extra in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            if kind == "gen":
                setattr(module, attr, tracer.wrap_generator(name, original, extra))
            elif kind == "rng":
                proxy = types.SimpleNamespace(**{k: v for k, v in vars(original).items() if not k.startswith("__")})
                proxy.substream = tracer.wrap(name, original.substream)
                setattr(module, attr, proxy)
            else:
                setattr(module, attr, tracer.wrap(name, original, extra))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class NullTracer:
    """Stand-in for untraced passes: calls straight through."""

    def call(self, name: str, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, n: float = 1) -> None:
        pass

    def fail(self, name: str) -> None:
        pass


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics of one traced pass as ``name -> (value, unit, n)``."""
    totals = tracer.totals()
    counters = tracer.counters

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> tuple[float, str, int]:
        n, seconds, _ = totals.get(name, (0, 0.0, 0.0))
        return seconds, "s", n

    def self_time(name: str) -> tuple[float, str, int]:
        n, _, seconds = totals.get(name, (0, 0.0, 0.0))
        return seconds, "s", n

    def counted(key: str, unit: str = "count") -> tuple[float, str, int]:
        return counters[key], unit, 1

    pairs = counters["models.candidate_pairs"]
    cand_s = totals.get("models.candidate_distances", (0, 0.0, 0.0))[1]
    loads = calls("parameters.load_checkpoint")
    allocated = counters["parameters.allocated_rows"]
    m = {
        "synthetic.planted_split_s": total("synthetic.planted_split"),
        "datasets.load_interactions_s": total("datasets.load_interactions"),
        "datasets.k_core_filter_s": total("datasets.k_core_filter"),
        "datasets.split_dataset_s": total("datasets.split_dataset"),
        "datasets.save_split_dir_s": total("datasets.save_split_dir"),
        "datasets.load_split_dir_s": total("datasets.load_split_dir"),
        "training.history_calls": (calls("training.history"), "count", 1),
        "training.history_s": total("training.history"),
        "training.sample_triplets_s": total("training.sample_triplets"),
        "training.triplets": counted("training.triplets"),
        "training.batches": counted("training.batches"),
        "training.batch_build_s": self_time("training.epoch_batches"),
        "training.validation_s": total("training.validation"),
        "models.backward_s": total("models.backward"),
        "models.backward_calls": (calls("models.backward"), "count", 1),
        "models.candidate_distances_s": total("models.candidate_distances"),
        "models.candidate_pairs": counted("models.candidate_pairs"),
        "models.candidate_pairs_per_s": (pairs / cand_s if cand_s > 0 else 0.0, "pairs/s", 1),
        "parameters.adam_step_s": total("parameters.adam_step"),
        "parameters.project_unit_ball_s": total("parameters.project_unit_ball"),
        "parameters.grad_rows": counted("parameters.grad_rows"),
        "parameters.grad_rows_touched_ratio": (
            counters["parameters.grad_rows"] / allocated if allocated else 0.0, "ratio", calls("parameters.adam_step")),
        "parameters.save_checkpoint_s": total("parameters.save_checkpoint"),
        "parameters.load_checkpoint_s": total("parameters.load_checkpoint"),
        "parameters.checkpoint_bytes": (
            counters["parameters.checkpoint_bytes_loaded"] / loads if loads else 0.0, "B", loads),
        "evaluation.rank_items_s": total("evaluation.rank_items"),
        "evaluation.topk_s": self_time("evaluation.rank_items"),
        "evaluation.metrics_s": total("evaluation.metrics"),
        "evaluation.history_s": total("evaluation.history"),
        "evaluation.users": counted("evaluation.users"),
        "cli.item_history_table_s": total("cli.item_history_table"),
        "cli.recommend_self_s": self_time("cli.recommend"),
    }
    for layer in LAYERS:
        attempted = sum(n for name, (n, _, _) in totals.items() if name.split(".", 1)[0] == layer)
        m[f"{layer}.attempted"] = (attempted, "count", 1)
        m[f"{layer}.failed"] = (tracer.failed[layer], "count", 1)
    m["trace.spans"] = (len(tracer.starts), "count", 1)
    return m
