"""One process of a dataprice benchmark run.

run.py starts this file with one JSON argument (workload, seed, role, work
directory, seconds, and t0, run.py's clock reading when it started the
process). The process imports the package, sets the workload up from the
seed, prints "ready" and its set-up times as JSON, and then, by role:

  setup    exits, so that run.py can time another set-up;
  measure  runs passes of the workload until the seconds are used up and
           prints one JSON line with what each pass measured;
  trace    runs one untraced pass and one traced pass, writes the spans and
           prints one JSON line with the per-layer metrics.

Each workload is a closed loop: one process runs its steps back to back.
Times of set-up and passes are read on the speed-corrected clock of
speed.py, which runs from before the package is imported; the plain wall
times go along with them.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import shutil
import sys
import zlib
from pathlib import Path
from time import perf_counter

from speed import SpeedClock

CLOCK = SpeedClock()
if __name__ == "__main__":
    # before the imports below, which are part of set-up
    CLOCK.start()

import numpy as np  # noqa: E402
import yaml  # noqa: E402

from dataprice import cli, corpus, evaluate, explain, featsel  # noqa: E402
from dataprice.synth import SIGNAL_WORDS, generate_products  # noqa: E402

from spans import FAMILIES, STAGES, Recorder, layer_metrics  # noqa: E402

# Sizes were chosen so that a run fits the benchmark's time budget; the
# README in this directory gives the reasons and the measured shares.
PIPELINE_REG = {
    "listings": 24, "task": "regression", "threads": 2, "rerun": True,
    "stages": STAGES, "representations": evaluate.REPRESENTATIONS, "k": 5,
    "hyperparameters": {"gbt": {"n_rounds": 30}, "forest": {"n_trees": 25}},
}
GRID_TIERS = {
    "listings": 240, "task": "classification", "threads": 1, "rerun": False,
    "stages": ["ingest", "evaluate"], "representations": ["bow", "tfidf"],
    "k": 2, "hyperparameters": {"max_terms": 30},
}
# 20 rows x 6 families = 120 latencies per pass, so that the p90 has at
# least ten samples beyond it
EXPLAIN_ROWS = {"listings": 800, "rows": 20, "n_samples": 512,
                "background_rows": 50, "held_out": 200}

# The smoke mode keeps every code path but shrinks the slow loops. The
# grid and explain sizes stay large enough for their quality checks.
SMOKE_HYPERPARAMETERS = {
    "word2vec": {"d": 8, "epochs": 1}, "lda": {"iterations": 5},
    "bertopic": {"n_clusters": 3}, "svr": {"max_iter": 50},
    "gbt": {"n_rounds": 3},
}
SMOKE = {
    "pipeline_reg": {"listings": 20},
    "grid_tiers": {"listings": 240},
    "explain_rows": {"rows": 2, "n_samples": 16, "background_rows": 5,
                     "held_out": 10},
}

CHANCE_ACCURACY = 0.2        # five equal-frequency tiers
LOCAL_ACCURACY_TOL = 1e-6
MRMR_TOP = 20


def geometric_mean(errors: list[float]) -> float:
    """Prediction error of a workload: the geometric mean of its models'
    error shares (RMSE over the standard deviation of log price, or
    1 - accuracy), so that every model moves it in proportion and no single
    diverging one swamps it."""
    return float(np.exp(np.mean(np.log(errors))))


def input_seed(seed: int, workload: str) -> int:
    """Seed of a workload's generated listings."""
    return int(np.random.SeedSequence(
        [seed, zlib.crc32(workload.encode())]).generate_state(1)[0])


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.lines: list[str] = []

    def emit(self, record):
        self.lines.append(record.getMessage())


class Pass:
    """What one pass of a workload did."""

    def __init__(self):
        self.wall_s = 0.0
        self.wall_raw_s = 0.0
        self.attempted = 0
        self.failures: list[dict] = []
        self.check_errors: list[str] = []
        self.pred_error = float("nan")
        self.row_s: list[float] = []
        self.cell_failures = 0

    def time_since(self, t0: float) -> None:
        """Add the time from t0 to now to the pass's wall times."""
        t1 = perf_counter()
        self.wall_s += CLOCK.elapsed(t0, t1)
        self.wall_raw_s += t1 - t0

    def fail(self, op: str, where: str, kind: str) -> None:
        self.failures.append({"op": op, "where": where, "type": kind})

    def summary(self) -> dict:
        return {"wall_s": self.wall_s, "wall_raw_s": self.wall_raw_s,
                "attempted": self.attempted,
                "failures": self.failures, "check_errors": self.check_errors,
                "pred_error": self.pred_error, "row_s": self.row_s}


class CliWorkload:
    """Stages of the dataprice CLI, called in-process through cli.main on a
    config whose data.path names the generated listings file."""

    def __init__(self, name: str, params: dict, seed: int, work: Path,
                 smoke: bool):
        self.name, self.p, self.seed, self.work = name, dict(params), seed, work
        self.hp = self.p["hyperparameters"]
        if smoke:
            self.p.update(SMOKE[name])
            self.hp = dict(self.hp, **SMOKE_HYPERPARAMETERS)
        self.out = work / "out"
        self.config = work / "run.yaml"
        self.messages = _Messages()
        logging.getLogger("dataprice").addHandler(self.messages)

    def setup(self, rec: Recorder) -> None:
        products = generate_products(self.p["listings"],
                                     input_seed(self.seed, self.name))
        listings = self.work / "listings.jsonl"
        corpus.save_products(products, listings, format="jsonl")
        self.log_price_std = float(np.std(np.log([p.price for p in products])))
        cfg = {
            "seed": self.seed, "out_dir": str(self.out),
            "data": {"path": str(listings), "format": "jsonl"},
            "target": {"task": self.p["task"]},
            "representations": list(self.p["representations"]),
            "families": list(FAMILIES), "cv": {"k": self.p["k"]},
            "hyperparameters": self.hp,
        }
        self.config.write_text(yaml.safe_dump(cfg), encoding="utf-8")

    def _stages(self) -> dict:
        argv = ["--config", str(self.config), "--threads", str(self.p["threads"])]
        return {st: cli.main([st] + argv) for st in self.p["stages"]}

    def run_pass(self, rec: Recorder) -> Pass:
        shutil.rmtree(self.out, ignore_errors=True)
        res = Pass()
        errors0, reports0 = len(rec.errors), len(rec.reports)
        t0 = perf_counter()
        codes = [self._stages()]
        res.time_since(t0)
        if self.p["rerun"]:
            manifests = {st: self._manifest(st) for st in self.p["stages"]}
            del self.messages.lines[:]
            t0 = perf_counter()
            span = rec.open("cli.rerun")
            codes.append(self._stages())
            rec.close(span)
            res.time_since(t0)
            self._check_rerun(manifests, res)

        for run in codes:
            for st, code in run.items():
                res.attempted += 1
                if code != 0:
                    seen = [e["type"] for e in rec.errors[errors0:]
                            if e["where"] == "cli." + st]
                    res.fail("stage", st, seen[-1] if seen else "exit %d" % code)
                    res.check_errors.append("stage %s exited %d" % (st, code))
        reports = rec.reports[reports0:]
        self._check_report(reports[-1] if reports else None, res)
        return res

    def _manifest(self, stage: str) -> bytes:
        path = self.out / ("%s.manifest.json" % stage)
        return path.read_bytes() if path.exists() else b""

    def _check_rerun(self, manifests: dict, res: Pass) -> None:
        # `report` has no up-to-date short-circuit in the CLI: it always
        # re-assembles, so for it only the manifest is compared
        for st in self.p["stages"]:
            if st != "report" and "%s: up-to-date" % st not in self.messages.lines:
                res.check_errors.append("rerun: %s was not up-to-date" % st)
            if self._manifest(st) != manifests[st]:
                res.check_errors.append("rerun: %s manifest changed" % st)

    def _check_report(self, report, res: Pass) -> None:
        """Failure accounting and checks on the grid. Cells come from the
        CSV the evaluate stage wrote; fold failures from the report's
        error list, which the CSV does not show."""
        reps, fams = self.p["representations"], FAMILIES
        res.attempted += len(reps) * len(fams)
        path = self.out / ("report_%s.csv" % self.p["task"])
        if not path.exists():
            for rep in reps:
                for fam in fams:
                    res.fail("cell", "%s/%s" % (rep, fam), "missing")
            res.check_errors.append("no report %s" % path.name)
            return
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        table: dict[str, dict] = {}
        ranks: dict[str, list] = {}
        for row in rows:
            metric, rep = row[0], row[1]
            table.setdefault(metric, {})[rep] = [float(v) for v in row[2:2 + len(fams)]]
            ranks.setdefault(metric, []).append(int(row[-1]))
            if not math.isfinite(float(row[-2])):
                res.check_errors.append("%s %s: mean is not finite" % (metric, rep))

        failed_folds = {}
        for rep, fam, fold, msg in (report.errors if report else []):
            for f in (fams if fam == "*" else [fam]):
                failed_folds.setdefault((rep, f), []).append(msg)
        res.cell_failures = sum(len(v) for v in failed_folds.values())
        for ri, rep in enumerate(reps):
            for fi, fam in enumerate(fams):
                finite = all(math.isfinite(table[m][rep][fi]) for m in table)
                if not finite:
                    res.fail("cell", "%s/%s" % (rep, fam), "non-finite")
                    res.check_errors.append("%s/%s: non-finite cell" % (rep, fam))
                elif (rep, fam) in failed_folds:
                    res.fail("cell", "%s/%s" % (rep, fam), "fold error")
        for metric, r in ranks.items():
            if sorted(r) != list(range(1, len(reps) + 1)):
                res.check_errors.append("%s ranks are not a permutation" % metric)

        if self.p["task"] == "regression":
            shares = [v / self.log_price_std for rep in reps for v in table["RMSE"][rep]]
        else:
            shares = [1.0 - v for rep in reps for v in table["Accuracy"][rep]]
            for rep in reps:
                for fam, v in zip(fams, table["Accuracy"][rep]):
                    if not v > CHANCE_ACCURACY:
                        res.check_errors.append("%s/%s accuracy %.3f is at or "
                                                "below chance" % (rep, fam, v))
        res.pred_error = geometric_mean(shares)


class ExplainRows:
    """Attributions for single listings from six fitted regression models
    on bow plus structured features, then mRMR over every column and a
    predict of each model on the whole corpus. Every pass explains the
    same rows, so that passes do the same work."""

    def __init__(self, name: str, params: dict, seed: int, work: Path,
                 smoke: bool):
        self.name, self.seed, self.work = name, seed, work
        self.p = dict(params, **(SMOKE[name] if smoke else {}))
        self.hp = SMOKE_HYPERPARAMETERS if smoke else {}
        self.wrapped_for = None

    def _listings(self, name: str, n: int, seed: int):
        path = self.work / name
        corpus.save_products(generate_products(n, seed), path, format="jsonl")
        products = corpus.load_products(path, format="jsonl")
        texts = [corpus.compose_text(p) for p in products]
        y = corpus.make_targets(products, corpus.TargetSpec("regression"))
        return products, texts, y

    def setup(self, rec: Recorder) -> None:
        data_seed = input_seed(self.seed, self.name)
        products, texts, self.y = self._listings(
            "listings.jsonl", self.p["listings"], data_seed)
        hp = evaluate.merge_config(self.hp)
        bow, transform = evaluate.fit_representation("bow", texts, hp, data_seed)
        self.feats = bow.hstack(corpus.structured_matrix(products))
        self.X = self.feats.values
        # listings the models never saw, for pred_error
        held, held_texts, self.y_held = self._listings(
            "held_out.jsonl", self.p["held_out"],
            input_seed(self.seed, self.name + ".held_out"))
        self.X_held = transform(held_texts).hstack(corpus.structured_matrix(held)).values
        self.models = {fam: evaluate.fit_family(fam, self.X, self.y, "regression",
                                                0, hp, evaluate.mix_seed(data_seed, fam))
                       for fam in FAMILIES}
        self.plain_predict = {fam: m.predict for fam, m in self.models.items()}
        rng = np.random.default_rng(data_seed)
        self.background = self.X[rng.choice(len(self.X), self.p["background_rows"],
                                            replace=False)]

    def run_pass(self, rec: Recorder) -> Pass:
        if rec.tracing and self.wrapped_for is not rec:
            for fam, model in self.models.items():
                rec.wrap_model(model, fam)
            self.wrapped_for = rec
        res = Pass()
        t0 = perf_counter()
        for fam in FAMILIES:
            model = self.models[fam]
            for i in range(self.p["rows"]):
                x = self.X[i:i + 1]
                res.attempted += 1
                t = perf_counter()
                try:
                    phi, expected = explain.shap_values(
                        model, x, self.background, n_samples=self.p["n_samples"],
                        seed=self.seed + i)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    res.fail("row", "%s/%d" % (fam, i), type(exc).__name__)
                    continue
                res.row_s.append(perf_counter() - t)
                fx = float(self.plain_predict[fam](x)[0])
                gap = abs(float(phi.sum()) + float(expected[0]) - fx)
                if not gap <= LOCAL_ACCURACY_TOL:
                    res.check_errors.append("%s row %d: |sum(phi) + E - f(x)| = %.3g"
                                            % (fam, i, gap))
        trace = featsel.mrmr_select(self.feats, self.y, self.feats.n_cols, n_bins=10)
        preds = {fam: np.asarray(m.predict(self.X), dtype=np.float64)
                 for fam, m in self.models.items()}
        res.time_since(t0)

        top = {self.feats.columns[j] for j in trace.selected[:MRMR_TOP]}
        for word in SIGNAL_WORDS:
            if "bow_" + word not in top:
                res.check_errors.append("mRMR: bow_%s not in the first %d"
                                        % (word, MRMR_TOP))
        for fam, pred in preds.items():
            if not np.all(np.isfinite(pred)):
                res.check_errors.append("%s: non-finite predictions" % fam)
        std = float(np.std(self.y_held))
        res.pred_error = geometric_mean(
            [float(np.sqrt(np.mean((self.plain_predict[fam](self.X_held) - self.y_held) ** 2))) / std
             for fam in FAMILIES])
        return res


WORKLOADS = {
    "pipeline_reg": (CliWorkload, PIPELINE_REG),
    "grid_tiers": (CliWorkload, GRID_TIERS),
    "explain_rows": (ExplainRows, EXPLAIN_ROWS),
}


def main() -> int:
    spec = json.loads(sys.argv[1])
    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    cls, params = WORKLOADS[spec["workload"]]
    wl = cls(spec["workload"], params, spec["seed"], work, spec["smoke"])
    rec = Recorder("%s-%d" % (spec["workload"], spec["seed"]))
    rec.install(tracing=False)
    wl.setup(rec)
    ready = perf_counter()
    print("ready " + json.dumps({
        "setup_s": CLOCK.elapsed(spec["t0"], ready),
        "setup_raw_s": ready - spec["t0"]}), flush=True)
    info = {"listings": wl.p["listings"], "numpy": np.__version__}

    if spec["role"] == "measure":
        passes = []
        end = perf_counter() + spec["seconds"]
        while not passes or perf_counter() < end:
            passes.append(wl.run_pass(rec).summary())
        info["passes"] = passes
    elif spec["role"] == "trace":
        plain = wl.run_pass(rec)
        rec.unwrap_all()
        traced_rec = Recorder(rec.run_id + "-traced")
        traced_rec.install(tracing=True)
        t0 = perf_counter()
        traced = wl.run_pass(traced_rec)
        traced_rec.write(spec["spans"], t0)
        layers = layer_metrics(traced_rec.spans, traced.cell_failures, plain.row_s)
        layers["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
        info["passes"] = [plain.summary()]
        info["layers"] = layers
        info["spans"] = len(traced_rec.spans)
    CLOCK.stop()
    info["clock"] = CLOCK.summary()
    print(json.dumps(info), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
