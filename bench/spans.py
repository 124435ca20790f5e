"""Call recording for the dataprice benchmark.

`Recorder` replaces a package function at the module (or class, dict or
instance) attribute its caller looks it up through, so the package itself is
not changed. Every run installs the light hooks, which only note the type of
each exception that crosses a layer boundary and keep the grid report the
CLI builds. A traced run also records a span per call: name, parent, start,
end and attributes, kept in memory and written out when the run ends.

`layer_metrics` turns the spans of one traced pass into the per-layer
metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter

# The benchmark's own lists, not the package's: the per-layer metric names
# in BENCHMARK.json are built from them and must not change with the code.
STAGES = ["ingest", "featurize", "select", "train", "evaluate", "explain",
          "curve", "report"]
REPRESENTATIONS = ["bow", "tfidf", "word2vec", "lda", "bertopic"]
FAMILIES = ["linear", "mlp", "cart", "svm", "forest", "gbt"]

NAME, PARENT, START, END, ATTRS = range(5)


class Recorder:
    """Hooks on the package's public entry points, plus an optional span
    recorder. Spans form a tree through a stack, so calls must come from
    one thread; the package runs none of the hooked functions in a worker
    thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.tracing = False
        self.spans: list[list] = []
        self.errors: list[dict] = []     # exception types seen at hooks
        self.reports: list = []          # ExperimentReport of each grid
        self._stack: list[int] = []
        self._undo: list = []
        self._family_of: dict[int, str] = {}

    # ------------------------------------------------------------ spans --

    def open(self, name: str, attrs: dict | None = None) -> int:
        if not self.tracing:
            return -1
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, attrs])
        self._stack.append(i)
        return i

    def close(self, i: int, error: str | None = None) -> None:
        if i < 0:
            return
        rec = self.spans[i]
        rec[END] = perf_counter()
        self._stack.pop()
        if error is not None:
            rec[ATTRS] = dict(rec[ATTRS] or {}, error=error)

    def write(self, path, t0: float) -> None:
        """One JSON object per line, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "span": i, "parent": parent,
                    "name": name, "start": round(start - t0, 9),
                    "end": round(end - t0, 9), "attrs": attrs or {}}) + "\n")

    # ------------------------------------------------------------ hooks --

    def wrap(self, owner, attr, name_of, always: bool = False, after=None):
        """Replace owner.attr (or owner[attr] for a dict) by a wrapper that
        opens a span named name_of(args), or returns (name, attrs). With
        always=True the hook stays in untraced runs, where it only notes
        exception types. after(result, args) runs on each return and may
        replace the result."""
        is_dict = isinstance(owner, dict)
        fn = owner[attr] if is_dict else getattr(owner, attr)
        rec = self

        def hooked(*args, **kwargs):
            named = name_of(args)
            name, attrs = named if isinstance(named, tuple) else (named, None)
            i = rec.open(name, attrs)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec.errors.append({"where": name, "type": type(exc).__name__})
                rec.close(i, type(exc).__name__)
                raise
            rec.close(i)
            return after(out, args) if after is not None else out

        if not always and not self.tracing:
            return
        if is_dict:
            owner[attr] = hooked
        else:
            setattr(owner, attr, hooked)
        self._undo.append((owner, attr, fn, is_dict))

    def unwrap_all(self) -> None:
        while self._undo:
            owner, attr, fn, is_dict = self._undo.pop()
            if is_dict:
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)

    def install(self, tracing: bool) -> None:
        """Hook the package. Untraced runs get only the light hooks."""
        from dataprice import cli, evaluate, explain, featsel, textrep
        from dataprice.textrep import lda

        self.tracing = tracing
        for stage in STAGES:
            self.wrap(cli._COMMANDS, stage, lambda a, s=stage: "cli." + s,
                      always=True)
        self.wrap(cli, "run_grid", lambda a: "evaluate.grid", always=True,
                  after=self._keep_report)
        self.wrap(evaluate, "fit_representation", _rep_fit, always=True,
                  after=self._wrap_transform)
        self.wrap(evaluate, "fit_family", _fam_fit, always=True,
                  after=self._note_family)
        self.wrap(evaluate, "model_scores",
                  lambda a: "models.%s.predict" % self.family(a[0]),
                  always=True)
        # traced runs only
        self.wrap(cli, "fit_representation", _rep_fit,
                  after=self._wrap_transform)
        self.wrap(cli, "_fit_embedding_table", lambda a: "textrep.word2vec.fit")
        self.wrap(cli, "fit_family", _fam_fit, after=self._note_family)
        self.wrap(cli, "feature_curve", lambda a: "evaluate.curve")
        self.wrap(cli, "load_products", lambda a: "corpus.load")
        self.wrap(cli, "save_products", lambda a: "corpus.save")
        for owner in (cli, explain):
            self.wrap(owner, "shap_values", self._shap_name)
        for owner in (cli, evaluate, featsel):
            self.wrap(owner, "mrmr_select", lambda a: "featsel.mrmr")
        self.wrap(featsel, "mutual_information", lambda a: "featsel.mi")
        for owner in (evaluate, textrep):
            self.wrap(owner, "train_skipgram", lambda a: "textrep.skipgram")
        self.wrap(lda.TopicModel, "infer_theta", lambda a: "textrep.lda.infer")

    def wrap_model(self, model, family: str) -> None:
        """Span each predict call of one fitted model (traced runs only)."""
        self.wrap(model, "predict",
                  lambda a: ("models.%s.predict" % family, {"rows": len(a[0])}))

    def family(self, model) -> str:
        return self._family_of.get(id(model), "unknown")

    def _shap_name(self, args):
        from dataprice.models import CARTModel, ForestModel, GBTModel
        tree = isinstance(args[0], (CARTModel, ForestModel, GBTModel))
        return "explain.shap", {"method": "tree" if tree else "kernel",
                                "rows": len(args[1])}

    def _keep_report(self, report, args):
        self.reports.append(report)
        return report

    def _note_family(self, model, args):
        self._family_of[id(model)] = args[0]
        return model

    def _wrap_transform(self, out, args):
        if not self.tracing:
            return out
        feats, transform = out
        name = "textrep.%s.transform" % args[0]
        rec = self

        def traced_transform(texts):
            i = rec.open(name)
            try:
                return transform(texts)
            finally:
                rec.close(i)

        return feats, traced_transform


def _rep_fit(args):
    return "textrep.%s.fit" % args[0]


def _fam_fit(args):
    return "models.%s.fit" % args[0]


# ----------------------------------------------------- per-layer metrics --

def percentile(values, pct: int) -> float:
    """Inclusive percentile; 0 for no values."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(spans: list[list], grid_cell_failures: int,
                  row_s: list[float]) -> dict:
    """Per-layer figures of one traced pass; (value, unit) by metric name.
    Layers a workload does not touch read 0. row_s holds the explain
    latencies of the untraced pass, where spans do not inflate them."""
    dur = [s[END] - s[START] for s in spans]
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[PARENT]].append(i)

    def under(i: int, name: str) -> bool:
        p = spans[i][PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    total = defaultdict(float)
    calls = defaultdict(int)
    for i, s in enumerate(spans):
        total[s[NAME]] += dur[i]
        calls[s[NAME]] += 1

    m: dict[str, tuple] = {}
    for stage in STAGES:
        m["cli.%s_s" % stage] = (sum(
            dur[i] for i, s in enumerate(spans)
            if s[NAME] == "cli." + stage and not under(i, "cli.rerun")), "s")
    m["cli.rerun_s"] = (total["cli.rerun"], "s")

    m["corpus.load_s"] = (total["corpus.load"], "s")
    m["corpus.load_calls"] = (calls["corpus.load"], "count")
    m["corpus.save_s"] = (total["corpus.save"], "s")

    for rep in REPRESENTATIONS:
        m["textrep.%s.fit_s" % rep] = (total["textrep.%s.fit" % rep], "s")
        m["textrep.%s.transform_s" % rep] = (
            total["textrep.%s.transform" % rep], "s")
    m["textrep.skipgram_calls"] = (calls["textrep.skipgram"], "count")
    m["textrep.skipgram_s"] = (total["textrep.skipgram"], "s")
    m["textrep.lda.infer_s"] = (total["textrep.lda.infer"], "s")

    m["featsel.mrmr_s"] = (total["featsel.mrmr"], "s")
    m["featsel.mrmr_calls"] = (calls["featsel.mrmr"], "count")
    m["featsel.mi_calls"] = (calls["featsel.mi"], "count")
    m["featsel.mi_s"] = (total["featsel.mi"], "s")

    for fam in FAMILIES:
        m["models.%s.fit_s" % fam] = (total["models.%s.fit" % fam], "s")
        m["models.%s.predict_s" % fam] = (total["models.%s.predict" % fam], "s")
        m["models.%s.fit_calls" % fam] = (calls["models.%s.fit" % fam], "count")
    m["models.fit_failures"] = (sum(
        1 for s in spans if s[NAME].startswith("models.")
        and s[NAME].endswith(".fit") and s[ATTRS] and "error" in s[ATTRS]),
        "count")

    # a grid cell is one (representation, fold, family) fit plus the
    # predict call that scores it
    grids = [i for i, s in enumerate(spans) if s[NAME] == "evaluate.grid"]
    cell_s = []
    self_s = 0.0
    for g in grids:
        kids = children[g]
        self_s += dur[g] - sum(dur[k] for k in kids)
        fit_start = None
        for k in kids:
            name = spans[k][NAME]
            if name.startswith("models.") and name.endswith(".fit"):
                fit_start = spans[k][START]
            elif (name.startswith("models.") and name.endswith(".predict")
                  and fit_start is not None):
                cell_s.append(spans[k][END] - fit_start)
                fit_start = None
    m["evaluate.cells"] = (sum(
        1 for g in grids for k in children[g]
        if spans[k][NAME].startswith("models.")
        and spans[k][NAME].endswith(".fit")), "count")
    m["evaluate.cell_failures"] = (grid_cell_failures, "count")
    m["evaluate.cell_s_p50"] = (percentile(cell_s, 50), "s")
    m["evaluate.cell_s_p90"] = (percentile(cell_s, 90), "s")
    m["evaluate.self_s"] = (self_s, "s")

    shap = [i for i, s in enumerate(spans) if s[NAME] == "explain.shap"]
    m["explain.tree_s"] = (sum(dur[i] for i in shap
                               if spans[i][ATTRS]["method"] == "tree"), "s")
    m["explain.kernel_s"] = (sum(dur[i] for i in shap
                                 if spans[i][ATTRS]["method"] == "kernel"), "s")
    m["explain.rows"] = (sum(spans[i][ATTRS]["rows"] for i in shap), "count")
    predicts = [i for i, s in enumerate(spans)
                if s[NAME].startswith("models.") and s[NAME].endswith(".predict")
                and under(i, "explain.shap")]
    m["explain.predict_calls"] = (len(predicts), "count")
    m["explain.predict_rows"] = (sum((spans[i][ATTRS] or {}).get("rows", 0)
                                     for i in predicts), "count")
    m["explain.predict_s"] = (sum(dur[i] for i in predicts), "s")
    m["explain.row_s_p50"] = (percentile(row_s, 50), "s")
    m["explain.row_s_p90"] = (percentile(row_s, 90), "s")
    return m
