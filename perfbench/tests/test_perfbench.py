"""Smoke tests of the benchmark at tiny sizes, and of its tracing wrappers.

    python -m pytest perfbench/tests
"""
from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import pipeline
import run
import tracing

TINY = {
    "train-planted": dict(users=60, items=40, clusters=4, per_user=14, low_ratings=3, k_core=2),
    "rank-catalog": dict(users=20, items=200, clusters=4, per_user=14, low_ratings=3, k_core=1),
    "cli-recommend": dict(users=80, items=60, clusters=4, per_user=14, low_ratings=5, k_core=2, eval_users=8),
}


def _spec_names(kind: str) -> list[str]:
    return [m["name"] for m in run._spec()[kind]]


@pytest.fixture
def tiny_workloads(monkeypatch, tmp_path):
    small = {name: replace(w, blocks=2, eval_parts=2, setup_every=2, min_recommend=12, checks_pairs=3, checks_users=1, dim=8,
                           n_relations=3, batch_size=16, history_cap=6, **TINY[name])
             for name, w in pipeline.WORKLOADS.items()}
    monkeypatch.setattr(pipeline, "WORKLOADS", small)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))


@pytest.mark.parametrize("name", list(pipeline.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted(tiny_workloads, capsys, name, trace):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = _spec_names("per_layer" if trace else "end_to_end")
    assert list(result["metrics"]) == names
    # every layer does work on every workload; only failure counts may be 0
    zero = [m for m in names if result["metrics"][m]["value"] == 0 and not m.endswith(".failed")]
    assert zero == []


def test_speed_scale_uses_the_reference_times_around_each_sample(monkeypatch):
    references = iter([0.010, 0.030, 0.020])
    monkeypatch.setattr(pipeline, "reference_seconds", lambda: next(references))
    speed = pipeline.SpeedScale()
    speed.before()  # 0.010
    speed.add("a", 1.0)  # 0.030 after: scaled by 0.008 / 0.020
    speed.before()  # the reference just taken still stands
    speed.add("a", 2.0)  # 0.020 after: scaled by 0.008 / 0.025
    assert speed.raw == {"a": [1.0, 2.0]}
    assert speed.scaled["a"] == pytest.approx([0.4, 0.64])
    assert speed.references == [0.010, 0.030, 0.020]


def test_benchmark_workloads_are_defined_with_their_reasons():
    for entry in run._spec()["workloads"]:
        assert pipeline.WORKLOADS[entry["name"]].why == entry["why"]


def test_wrappers_restore_module_attributes():
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, *_ in tracing.PATCHES}
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer("t")):
            for (mod, attr), original in originals.items():
                assert getattr(importlib.import_module(mod), attr) is not original
            raise RuntimeError("leave the traced block early")
    for (mod, attr), original in originals.items():
        assert getattr(importlib.import_module(mod), attr) is original


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-planted", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
