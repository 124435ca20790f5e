#!/usr/bin/env python3
"""Time the README pipeline stage by stage, one CLI process per stage.

    python3 tools/time_stages.py [--repeat 3] [--threads 2] [--listings 600]
                                 [--out stages.json] [--compare other.json]

Each pass writes the README run.yaml (seed 42, --listings synthetic
listings, all five representations and six families, cv.k 5,
gbt.n_rounds 30, forest.n_trees 25) into a fresh directory, then runs
`python3 -m dataprice.cli <stage> --config run.yaml --threads N` for
ingest, featurize, select, train, evaluate, explain, curve and report:
first cold, then a second time, when every stage must report itself
up to date. `annotate` is left out: it needs a raw listings file and
would replace ingest's products.jsonl. Each time is the wall time from
starting the process to its exit, interpreter start included. BLAS runs
on one thread in every process. The JSON it writes (to --out, else to
standard output) holds, per stage,

  cold_s       seconds of the cold run, the least of --repeat passes;
  rerun_s      seconds of the up-to-date run, the least of the passes;
  cold_rss_mb  the cold run's peak resident memory, the least of the
  rerun_rss_mb passes, and the same for the up-to-date run.

--compare other.json reads such a file, written by another version, and
prints (to standard error, with the timings) each stage's times and
memory beside the other version's. The tool runs the package under src/
of the checkout it sits in, through the CLI only, so a copy of it runs
unchanged in earlier versions' checkouts. pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ["ingest", "featurize", "select", "train", "evaluate", "explain",
          "curve", "report"]
RUN_YAML = """\
seed: 42
out_dir: run
data:
  synthetic: %d
target:
  task: regression
representations: [bow, tfidf, word2vec, lda, bertopic]
families: [linear, mlp, cart, svm, forest, gbt]
cv: {k: 5}
select: {representation: bow, m: 20, n_bins: 10}
train: {representation: bow, family: gbt}
curve:
  representation: bow
  family: gbt
  m_values: [1, 2, 3, 4, 5, 6, 8, 10]
hyperparameters:
  gbt: {n_rounds: 30}
  forest: {n_trees: 25}
"""


def run_stage(stage: str, work: Path, threads: int, env: dict) -> tuple:
    """(seconds, peak RSS in MB, stderr text) of one CLI process."""
    log = work / ("%s.log" % stage)
    with open(log, "w", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "dataprice.cli", stage, "--config",
             "run.yaml", "--threads", str(threads)],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        # wait4, not proc.wait: it also returns this process's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text(encoding="utf-8")
    if proc.returncode != 0:
        raise SystemExit("%s exited %d:\n%s" % (stage, proc.returncode, text))
    return seconds, usage.ru_maxrss / 1024, text


def time_stages(repeat: int, threads: int, listings: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    best = {stage: {"cold_s": float("inf"), "rerun_s": float("inf"),
                    "cold_rss_mb": float("inf"), "rerun_rss_mb": float("inf")}
            for stage in STAGES}
    for _ in range(repeat):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            (work / "run.yaml").write_text(RUN_YAML % listings,
                                           encoding="utf-8")
            for kind in ("cold", "rerun"):
                for stage in STAGES:
                    s, rss, text = run_stage(stage, work, threads, env)
                    if kind == "rerun" and "%s: up-to-date" % stage not in text:
                        raise SystemExit("%s did not rerun up to date:\n%s"
                                         % (stage, text))
                    row = best[stage]
                    row[kind + "_s"] = round(min(row[kind + "_s"], s), 4)
                    row[kind + "_rss_mb"] = round(
                        min(row[kind + "_rss_mb"], rss), 1)
    for stage, row in best.items():
        print("%-9s cold %7.3f s %6.1f MB   up to date %6.3f s %6.1f MB"
              % (stage, row["cold_s"], row["cold_rss_mb"], row["rerun_s"],
                 row["rerun_rss_mb"]), file=sys.stderr, flush=True)
    return {"repeat": repeat, "threads": threads, "listings": listings,
            "stages": best}


def compare(ours: dict, other: dict) -> None:
    """Print each stage's times and memory beside the other version's."""
    print("%-9s %15s %15s %17s" % ("stage", "cold s", "up-to-date s",
                                   "up-to-date MB"), file=sys.stderr)
    print("%-9s %15s %15s %17s" % ("", "ours / other", "ours / other",
                                   "ours / other"), file=sys.stderr)
    totals = [0.0] * 4
    for stage, row in ours["stages"].items():
        theirs = other["stages"].get(stage)
        if theirs is None:
            continue
        vals = [row["cold_s"], theirs["cold_s"], row["rerun_s"],
                theirs["rerun_s"]]
        totals = [t + v for t, v in zip(totals, vals)]
        print("%-9s %7.3f %7.3f %7.3f %7.3f %8.1f %8.1f"
              % (stage, *vals, row["rerun_rss_mb"], theirs["rerun_rss_mb"]),
              file=sys.stderr)
    print("%-9s %7.3f %7.3f %7.3f %7.3f" % ("total", *totals),
          file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--threads", type=int, default=2)
    parser.add_argument("--listings", type=int, default=600)
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--compare", type=Path,
                        help="JSON file of another version to compare with")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    out = time_stages(args.repeat, args.threads, args.listings)
    text = json.dumps(out, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.compare:
        compare(out, json.loads(args.compare.read_text(encoding="utf-8")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
