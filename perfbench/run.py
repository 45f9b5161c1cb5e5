"""Benchmark of the cmlrec pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. One workload runs in one process: an
untraced pass gives the end-to-end metrics (``--trace 0``); ``--trace 1``
adds a traced pass and reports the per-layer metrics, the tracing overhead,
and fails unless the traced pass reproduced the untraced results bit for bit.
``--workload all`` runs every workload, each in its own process.

Human-readable lines come first: the machine, every metric with its unit,
sample count and unscaled value, and the recorded (never gated) final train
loss and test recall of each head. Times, and the throughputs and latencies
made of them, are scaled to the speed at which a fixed reference work takes
``pipeline.REFERENCE_SECONDS``, timed around every sample, because a shared
machine's speed drifts by far more than the bounds of BENCHMARK.json. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full result
and, for traced runs, the spans go to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
EXIT_NO_PROGRAM = 2
# One BLAS thread (nproc is 2 or more) keeps runs on a shared machine steady.
# It is set before numpy loads, in the entry point below.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from ``.git`` directly."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "cmlrec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    import pipeline
    import tracing

    spec = _spec()
    w = pipeline.WORKLOADS[name]
    info = machine()
    plain, traced, tracer = pipeline.run_workload(w, seed, seconds, trace, OUT_DIR)
    failures = list(plain.failures)
    attempted = plain.attempted + 1  # the last check: every metric is measured
    if trace:
        attempted += traced.attempted + 1
        failures += traced.failures
        diff = sorted(k for k in plain.digests.keys() | traced.digests.keys()
                      if plain.digests.get(k) != traced.digests.get(k))
        if diff:
            failures.append(f"tracing changed results: {', '.join(diff)}")
        layer = tracing.layer_metrics(tracer)
        layer["trace.overhead_s"] = (traced.scaled_wall_s() - plain.scaled_wall_s(), "s", 1)
        wanted = [m["name"] for m in spec["per_layer"]]
        measured = layer
    else:
        plain.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
        wanted = [m["name"] for m in spec["end_to_end"]]
        measured = plain.metrics
    missing = [m for m in wanted if m not in measured]
    if missing:
        failures.append(f"metrics not measured: {', '.join(missing)}")

    print(f"# perfbench workload={name} seed={seed} seconds={seconds} trace={int(trace)}")
    print(f"# why: {w.why}")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in info.items()))
    raw = {} if trace else plain.raw_metrics
    print(f"{'metric':<38} {'value':>14} {'unit':<8} {'n':>6} {'unscaled':>14}")
    for m in wanted:
        if m in measured:
            value, unit, n = measured[m]
            print(f"{m:<38} {_fmt(value):>14} {unit:<8} {n:>6} {_fmt(raw[m][0]) if m in raw else '':>14}")
    refs = plain.samples["reference_s"]
    print(f"# machine speed: the reference work took {statistics.median(refs):.6f} s (median of {len(refs)}); "
          f"values are scaled to {pipeline.REFERENCE_SECONDS} s, unscaled ones are as timed; rounds={plain.rounds}")
    print("# stage seconds: " + " ".join(f"{k}={v:.2f}" for k, v in plain.stage_s.items()))
    for key, value in sorted(plain.recorded.items()):
        print(f"# recorded, not gated: {key} = {value:.10g}")
    for f in failures:
        print(f"# FAILED: {f}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": measured[m][0], "unit": measured[m][1]} for m in wanted if m in measured},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name, "why": w.why, "seed": seed, "seconds": seconds, "trace": int(trace),
            "machine": info, "result": result,
            "sample_counts": {m: measured[m][2] for m in wanted if m in measured},
            "unscaled_metrics": {m: raw[m][0] for m in wanted if m in raw},
            "recorded": plain.recorded, "stage_seconds": plain.stage_s, "raw_samples": plain.samples,
            "failures": failures,
            "digests": plain.digests,
        }, fh, indent=1)
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload in its own process, so each has its own peak RSS."""
    import pipeline

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in pipeline.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"# workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or all")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds after which a pass starts no new round (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cmlrec", "__init__.py")):
        print(f"perfbench: no cmlrec sources under {SRC}; run from the root of a cmlrec checkout",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, SRC)
    import pipeline

    seconds = args.seconds if args.seconds is not None else int(_spec()["run_seconds"])
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))
    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected all or one of {', '.join(pipeline.WORKLOADS)}")
    return run_one(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    os.environ.update(BLAS_THREADS)
    sys.exit(main())
