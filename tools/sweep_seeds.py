#!/usr/bin/env python3
"""Seed sweep of the benchmark's grid_tiers checks.

    python3 tools/sweep_seeds.py [--seeds 1-40] [--out sweep.json]

For each seed the sweep runs

    python3 bench/run.py --workload grid_tiers --seed S --seconds 0 --trace 0

and records whether the run reported `correct`, with its check errors. It
then builds the same grid in this process, through the benchmark worker's
own set-up, and reads every cell's accuracy from the report. The JSON it
writes (to --out, else to standard output) holds the pass rate, the
failing seeds with their check errors, and per cell (representation/
family) the lowest accuracy over the seeds and the seed where it fell.

The sweep only measures: it changes no seed, bound or test. It runs the
checkout it lies in, so a copy of it in another checkout sweeps that one.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "grid_tiers"


def bench_run(seed: int) -> dict:
    """The result of one benchmark run: correct, exit code, check errors."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOAD, "--seed",
         str(seed), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"correct": False, "exit": proc.returncode,
                "check_errors": ["no result: " + proc.stderr.strip()[-500:]]}
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"correct": result["correct"], "exit": proc.returncode,
            "check_errors": details["check_errors"]}


def cell_accuracies(seed: int) -> dict:
    """{representation/family: accuracy} of the grid that the benchmark
    builds at seed, built here by its worker's workload."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    try:
        import worker
    finally:
        del sys.path[:2]
    with tempfile.TemporaryDirectory() as work:
        wl = worker.CliWorkload(WORKLOAD, worker.GRID_TIERS, seed, Path(work),
                                False)
        try:
            wl.setup(None)
            codes = wl._stages()
        finally:
            logging.getLogger("dataprice").removeHandler(wl.messages)
        if any(codes.values()):
            raise RuntimeError("seed %d: stages exited %s" % (seed, codes))
        with open(wl.out / "report_classification.csv", newline="",
                  encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    families = rows[0][2:-2]
    return {"%s/%s" % (row[1], fam): float(v)
            for row in rows[1:] if row[0] == "Accuracy"
            for fam, v in zip(families, row[2:])}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT / "src")).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def sweep(seeds) -> dict:
    failing, lowest = [], {}
    for seed in seeds:
        run = bench_run(seed)
        if not run["correct"]:
            failing.append({"seed": seed, **run})
        for cell, acc in cell_accuracies(seed).items():
            if cell not in lowest or acc < lowest[cell]["accuracy"]:
                lowest[cell] = {"accuracy": acc, "seed": seed}
        print("seed %d: %s" % (seed, "ok" if run["correct"] else "FAILED"),
              file=sys.stderr, flush=True)
    return {"workload": WORKLOAD, "source_sha256": source_digest(),
            "seed_range": [seeds[0], seeds[-1]], "runs": len(seeds),
            "pass_rate": 1.0 - len(failing) / len(seeds),
            "failing": failing, "min_accuracy": dict(sorted(lowest.items()))}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed range %r" % text)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-40"),
                        help="first-last, inclusive (default 1-40)")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    # the benchmark's workers run BLAS on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    text = json.dumps(sweep(args.seeds), indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
