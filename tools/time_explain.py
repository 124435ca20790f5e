#!/usr/bin/env python3
"""Time the explained rows of the benchmark's explain_rows set-up, family
by family.

    python3 tools/time_explain.py [--seed 7] [--repeat 3] [--out rows.json]
                                  [--compare other.json]

The set-up is bench/worker.py's ExplainRows, rebuilt here: 800 generated
listings (written and read back through a listings file), bow plus the
structured columns, the six regression families fitted with the default
hyperparameters, and 50 background rows drawn from the listings. Each
family explains the first 20 listings one at a time, as the workload's
pass does, with n_samples 512 and seed S + i for row i. The JSON it
writes (to --out, else to standard output) holds, per family,

  s            seconds for the 20 rows, the least of --repeat passes;
  ms_per_row   s / 20, in milliseconds;
  max_gap      the worst local-accuracy gap |sum(phi) + E - f(x)|;
  phi          the attributions, one list per row, each value's float.hex,
               to compare versions bit for bit.

--compare other.json reads such a file, written by another version, and
prints (to standard error, with the timings) per family
max |phi - phi_other| / max |phi_other| and both versions' seconds. BLAS
runs on one thread, as in the benchmark's workers. The tool calls only
the package's public functions, so it runs unchanged on earlier versions.
pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time
import zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAMILIES = ["linear", "mlp", "cart", "svm", "forest", "gbt"]
LISTINGS, ROWS, N_SAMPLES, BACKGROUND_ROWS = 800, 20, 512, 50


def build(seed: int):
    """(models, X, background) of explain_rows at seed."""
    import numpy as np
    from dataprice import corpus, evaluate
    from dataprice.synth import generate_products

    data_seed = int(np.random.SeedSequence(
        [seed, zlib.crc32(b"explain_rows")]).generate_state(1)[0])
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "listings.jsonl"
        corpus.save_products(generate_products(LISTINGS, data_seed), path,
                             format="jsonl")
        products = corpus.load_products(path, format="jsonl")
    texts = [corpus.compose_text(p) for p in products]
    y = corpus.make_targets(products, corpus.TargetSpec("regression"))
    hp = evaluate.merge_config({})
    bow, _ = evaluate.fit_representation("bow", texts, hp, data_seed)
    X = bow.hstack(corpus.structured_matrix(products)).values
    models = {fam: evaluate.fit_family(fam, X, y, "regression", 0, hp,
                                       evaluate.mix_seed(data_seed, fam))
              for fam in FAMILIES}
    rng = np.random.default_rng(data_seed)
    background = X[rng.choice(len(X), BACKGROUND_ROWS, replace=False)]
    return models, X, background


def time_rows(seed: int, repeat: int) -> dict:
    import numpy as np
    from dataprice import explain

    models, X, background = build(seed)
    out = {"seed": seed, "rows": ROWS, "n_samples": N_SAMPLES,
           "background_rows": BACKGROUND_ROWS, "columns": X.shape[1],
           "families": {}}
    for fam in FAMILIES:
        model, best, phis, gap = models[fam], float("inf"), None, 0.0
        for _ in range(repeat):
            phis = []
            t0 = time.perf_counter()
            for i in range(ROWS):
                phi, expected = explain.shap_values(
                    model, X[i:i + 1], background, n_samples=N_SAMPLES,
                    seed=seed + i)
                phis.append((phi[0], float(expected[0])))
            best = min(best, time.perf_counter() - t0)
        for i, (phi, expected) in enumerate(phis):
            fx = float(np.asarray(model.predict(X[i:i + 1]))[0])
            gap = max(gap, abs(float(phi.sum()) + expected - fx))
        out["families"][fam] = {
            "s": round(best, 4), "ms_per_row": round(1e3 * best / ROWS, 2),
            "max_gap": gap,
            "phi": [[float(v).hex() for v in phi] for phi, _ in phis]}
        print("%-7s %7.3f s  %7.2f ms/row  gap %.2g"
              % (fam, best, 1e3 * best / ROWS, gap), file=sys.stderr,
              flush=True)
    return out


def compare(ours: dict, other: dict) -> None:
    """Print, per family, the largest change of phi against other's,
    relative to other's largest |phi|, and both timings."""
    print("%-7s %12s %10s %10s" % ("family", "max|dphi|/", "s", "other s"),
          file=sys.stderr)
    for fam, run in ours["families"].items():
        theirs = other["families"].get(fam)
        if theirs is None:
            continue
        a = [float.fromhex(v) for row in run["phi"] for v in row]
        b = [float.fromhex(v) for row in theirs["phi"] for v in row]
        scale = max(map(abs, b)) or 1.0
        diff = max(abs(u - v) for u, v in zip(a, b)) / scale
        print("%-7s %12.3g %10.3f %10.3f" % (fam, diff, run["s"],
                                             theirs["s"]), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--compare", type=Path,
                        help="JSON file of another version to compare with")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before NumPy is imported
    sys.path.insert(0, str(ROOT / "src"))
    logging.disable(logging.INFO)
    out = time_rows(args.seed, args.repeat)
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
