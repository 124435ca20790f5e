#!/usr/bin/env python3
"""Seed sweeps of stochastic checks.

    python3 tools/sweep_seeds.py [--seeds 1-40] [--out sweep.json]
    python3 tools/sweep_seeds.py --check lda [--seeds 0-19] [--out lda.json]
    python3 tools/sweep_seeds.py --check word2vec [--seeds 0-19]
    python3 tools/sweep_seeds.py --check pipeline [--seeds 0-19]

The default check is the benchmark's grid_tiers workload. For each seed the
sweep runs

    python3 bench/run.py --workload grid_tiers --seed S --seconds 0 --trace 0

and records whether the run reported `correct`, with its check errors. It
then builds the same grid in this process, through the benchmark worker's
own set-up, and reads every cell's accuracy from the report. The JSON it
writes (to --out, else to standard output) holds the pass rate, the
failing seeds with their check errors, and per cell (representation/
family) the lowest accuracy over the seeds and the seed where it fell.

`--check lda` runs, in this process, the two planted-topic LDA checks of
the tier-1 tests at each seed S (0-19 by default):

  criterion_3                     tests/test_acceptance.py's criterion 3 at
                                  seed S (the test runs seeds 0, 1 and 2);
  test_planted_topics_recovered   tests/test_lda.py's check with the corpus
                                  of seed S + 2 and the sampler at seed S
                                  (the test runs S = 0).

For each it writes the pass rate against the test's bound, the failing
seeds, and the quantiles of the topic-word TV distance.

`--check word2vec` trains, in this process, the skip-gram of
tests/test_word2vec.py's test_related_words_closer_than_unrelated at each
seed S (0-19 by default; the test runs S = 1) and writes the pass rate,
the failing seeds and the quantiles of the test's margin,
sim(apple, fruit) - sim(apple, engine), which passes above 0.

`--check pipeline` runs, in this process, tests/test_acceptance.py's
criterion 9 (end to end on 600 synthetic listings, about 4 s) at each seed
S (0-19 by default; the test runs S = 0), with the corpus and the master
seed both S. For each of its statistics it writes the pass rate against
the test's bound, the failing seeds and the quantiles:

  r2                pooled log-space R^2 of bow/gbt          > 0.8
  tier_accuracy     five-tier accuracy of bow/gbt            >= 0.60
  signal_position   mRMR position covering every signal word <= 20
  curve_change      the curve's largest relative MSE change
                    after that position                      < 0.05

and the share of seeds where all four pass.

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
LDA_TV_BOUND = 0.15  # both LDA checks' bound


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


def quantiles(values) -> dict:
    """The minimum, deciles 1 and 9, quartiles, median and maximum."""
    import numpy as np

    q = np.quantile(values, [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    return dict(zip(["min", "q10", "q25", "median", "q75", "q90", "max"],
                    q.round(6).tolist()))


def lda_sweep(seeds) -> dict:
    """Pass rate, failing seeds and TV quantiles of the two LDA checks."""
    import numpy as np  # after main() has pinned BLAS to one thread

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        from dataprice.textrep import train_lda
        from test_acceptance import planted_topics_tv
        from test_lda import best_aligned_tv, planted_corpus
    finally:
        del sys.path[:2]

    def recovered_tv(seed):
        model = train_lda(planted_corpus(200, seed + 2), 2, alpha=0.5,
                          iterations=120, seed=seed)
        return best_aligned_tv(model.phi, model.terms)

    checks = {}
    for name, tv_of in (("criterion_3", planted_topics_tv),
                        ("test_planted_topics_recovered", recovered_tv)):
        tv = []
        for seed in seeds:
            tv.append(float(tv_of(seed)))
            print("%s seed %d: TV %.4f" % (name, seed, tv[-1]),
                  file=sys.stderr, flush=True)
        checks[name] = {
            "pass_rate": float(np.mean(np.array(tv) < LDA_TV_BOUND)),
            "failing_seeds": [s for s, t in zip(seeds, tv)
                              if not t < LDA_TV_BOUND],
            "tv_quantiles": quantiles(tv),
            "tv": [round(t, 6) for t in tv]}
    return {"check": "lda", "source_sha256": source_digest(),
            "seed_range": [seeds[0], seeds[-1]], "runs": len(seeds),
            "tv_bound": LDA_TV_BOUND, "checks": checks}


def word2vec_sweep(seeds) -> dict:
    """Pass rate, failing seeds and margin quantiles of the word2vec check."""
    import numpy as np  # after main() has pinned BLAS to one thread

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from dataprice.textrep import train_skipgram
    finally:
        del sys.path[0]
    # test_related_words_closer_than_unrelated's corpus and settings
    corpus = (["red apple sweet fruit tasty apple fruit"] * 10
              + ["fast car engine wheel motor car engine"] * 10)

    def margin(seed):
        table = train_skipgram(corpus, d=12, window=3, epochs=10, seed=seed)

        def sim(a, b):
            va, vb = table.vector(a), table.vector(b)
            return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

        return sim("apple", "fruit") - sim("apple", "engine")

    margins = []
    for seed in seeds:
        margins.append(margin(seed))
        print("word2vec seed %d: margin %.4f" % (seed, margins[-1]),
              file=sys.stderr, flush=True)
    return {"check": "word2vec", "source_sha256": source_digest(),
            "seed_range": [seeds[0], seeds[-1]], "runs": len(seeds),
            "pass_rate": float(np.mean(np.array(margins) > 0)),
            "failing_seeds": [s for s, m in zip(seeds, margins) if not m > 0],
            "margin_quantiles": quantiles(margins),
            "margin": [round(m, 6) for m in margins]}


# criterion 9's bounds: whether a statistic's value passes
PIPELINE_BOUNDS = {"r2": ("> 0.8", lambda v: v > 0.8),
                   "tier_accuracy": (">= 0.60", lambda v: v >= 0.60),
                   "signal_position": ("<= 20", lambda v: v <= 20),
                   "curve_change": ("< 0.05", lambda v: v < 0.05)}


def pipeline_sweep(seeds) -> dict:
    """Pass rates, failing seeds and quantiles of criterion 9's statistics."""
    import numpy as np  # after main() has pinned BLAS to one thread

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    try:
        from test_acceptance import end_to_end_stats
    finally:
        del sys.path[:2]
    runs = []
    for seed in seeds:
        runs.append(end_to_end_stats(seed))
        print("pipeline seed %d: %s" % (seed, ", ".join(
            "%s %.4g" % item for item in runs[-1].items())),
            file=sys.stderr, flush=True)
    checks = {}
    for name, (bound, passes) in PIPELINE_BOUNDS.items():
        values = [float(run[name]) for run in runs]
        checks[name] = {
            "bound": bound,
            "pass_rate": float(np.mean([passes(v) for v in values])),
            "failing_seeds": [s for s, v in zip(seeds, values) if not passes(v)],
            "quantiles": quantiles(values),
            "values": [round(v, 6) for v in values]}
    all_pass = [all(passes(run[name]) for name, (_, passes) in PIPELINE_BOUNDS.items())
                for run in runs]
    return {"check": "pipeline", "source_sha256": source_digest(),
            "seed_range": [seeds[0], seeds[-1]], "runs": len(seeds),
            "pass_rate": float(np.mean(all_pass)), "checks": checks}


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("empty seed range %r" % text)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check",
                        choices=["grid_tiers", "lda", "word2vec", "pipeline"],
                        default="grid_tiers", help="what to sweep")
    parser.add_argument("--seeds", type=seed_range,
                        help="first-last, inclusive (default 1-40 for "
                             "grid_tiers, 0-19 for the others)")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    # the benchmark's workers run BLAS on one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if args.check == "lda":
        result = lda_sweep(args.seeds or seed_range("0-19"))
    elif args.check == "word2vec":
        result = word2vec_sweep(args.seeds or seed_range("0-19"))
    elif args.check == "pipeline":
        result = pipeline_sweep(args.seeds or seed_range("0-19"))
    else:
        result = sweep(args.seeds or seed_range("1-40"))
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
