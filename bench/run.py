#!/usr/bin/env python3
"""Benchmark of the dataprice pipeline.

    python3 bench/run.py --workload pipeline_reg --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --smoke

A run starts a fresh interpreter (bench/worker.py) several times: each one
imports the package from src/ and sets the workload up from the seed, which
times set-up; the last one then runs the workload for the given seconds.
With --trace 1 a single process runs one untraced and one traced pass and
the run reports per-layer metrics instead. The last line of standard
output is the result; the line before it holds provenance and details.
Spans of a traced run go to .bench_work/spans/.

--smoke runs every workload once at a tiny size, traced, and checks that
every metric named in BENCHMARK.json is emitted.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("pipeline_reg", "grid_tiers", "explain_rows")
SETUPS_PER_RUN = 3
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # --threads is the only parallelism a workload may use
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(spec: dict, deadline: float) -> tuple[dict | None, dict]:
    """Start one worker; return (its result, its set-up times). The result
    is None for a set-up-only worker."""
    log_path = Path(spec["work"]) / ("worker-%s.log" % spec["role"])
    log_path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w", encoding="utf-8") as log:
        # -B: no .pyc files, so every set-up compiles the package the same
        # way whatever earlier runs left in src/
        argv = [sys.executable, "-B", str(BENCH / "worker.py")]
        proc = subprocess.Popen(
            argv + [json.dumps(dict(spec, t0=perf_counter()))],
            stdout=subprocess.PIPE, stderr=log, text=True, cwd=ROOT,
            env=_child_env())
        killer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            proc.stdout.close()
    word, _, setup = first.partition(" ")
    if word != "ready" or code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
        raise BenchError("worker (%s) failed with exit code %s:\n%s"
                         % (spec["role"], code, tail))
    lines = rest.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), json.loads(setup)


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "success_ratio": (1.0 - failed / attempted, "1"),
        "pred_error": (statistics.median(p["pred_error"] for p in passes), "1"),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str | None:
    """HEAD of the checkout's own .git when it has one and the ref is a
    loose file; no parent directory is searched. source_sha256 identifies
    the code in every case."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    return loose.read_text().strip() if loose.is_file() else None


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False) -> tuple[dict, dict]:
    """One run; returns (result, details)."""
    if not (SRC / "dataprice" / "__init__.py").is_file():
        raise BenchError("no package source at %s" % (SRC / "dataprice"))
    deadline = perf_counter() + RUN_DEADLINE_S
    work = WORK / ("%s-%d-%d" % (workload, seed, os.getpid()))
    spans_path = WORK / "spans" / ("%s-seed%d.jsonl" % (workload, seed))
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "work": str(work), "smoke": smoke, "spans": str(spans_path)}
    try:
        if trace:
            out, setup = run_child(dict(spec, role="trace"), deadline)
            setups = [setup]
        else:
            setups = []
            for _ in range(SETUPS_PER_RUN - 1):
                setups.append(run_child(dict(spec, role="setup"), deadline)[1])
            out, setup = run_child(dict(spec, role="measure"), deadline)
            setups.append(setup)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = out["passes"]
    check_errors = sorted({e for p in passes for e in p["check_errors"]})
    failures = [f for p in passes for f in p["failures"]]
    metrics = {}
    if smoke or not trace:
        metrics.update(end_to_end(passes, setups))
    if trace:
        metrics.update(out["layers"])
    result = {
        "correct": not check_errors,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "provenance": {
            "workload": workload, "seed": seed, "listings": out["listings"],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": out["numpy"], "git_revision": git_revision(),
            "source_sha256": source_digest(), "trace": trace,
            "seconds": seconds,
        },
        "passes": len(passes),
        "explain_row_samples": sum(len(p["row_s"]) for p in passes),
        "setup_samples": [round(s["setup_s"], 4) for s in setups],
        "setup_raw_samples": [round(s["setup_raw_s"], 4) for s in setups],
        "wall_samples": [round(p["wall_s"], 4) for p in passes],
        "wall_raw_samples": [round(p["wall_raw_s"], 4) for p in passes],
        "clock": out["clock"],
        "failure_types": dict(collections.Counter(f["type"] for f in failures)),
        "check_errors": check_errors[:20],
    }
    if trace:
        details["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                            "count": out["spans"]}
    return result, details


def smoke() -> int:
    """Every workload once, tiny and traced; every metric of BENCHMARK.json
    must be emitted. Returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for i, workload in enumerate(WORKLOADS):
        result, details = run(workload, i + 1, 0.0, trace=True, smoke=True)
        missing = sorted(wanted - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - wanted)
        good = result["correct"] and not missing and not extra
        ok &= good
        print(json.dumps({"workload": workload, "ok": good, "missing": missing,
                          "extra": extra, "correct": result["correct"],
                          "check_errors": details["check_errors"]}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        result, details = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(details))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
