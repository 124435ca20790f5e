"""Cross-validated evaluation: fold plans, regression/classification
metrics, the representation x model experiment grid, and mRMR feature-count
curves."""

from __future__ import annotations

import concurrent.futures
import csv
import os
import warnings
import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .corpus import (DataProduct, TargetSpec, compose_text, make_targets,
                     structured_matrix)
from .featsel import mrmr_select
from .matrix import FeatureMatrix
from .models import (fit_cart, fit_forest, fit_gbt, fit_linear, fit_logistic,
                     fit_mlp, fit_standardized, fit_svm, fit_svr, one_vs_rest)
from .textrep import (PCAReducer, build_vocabulary, bow, embedding_features,
                      kmeans, membership_probabilities, tfidf, topic_features,
                      train_lda, train_skipgram)

REPRESENTATIONS = ["bow", "tfidf", "word2vec", "lda", "bertopic"]
FAMILIES = ["linear", "mlp", "cart", "svm", "forest", "gbt"]
ERROR_METRICS = ("MSE", "RMSE", "MAPE")
SCORE_METRICS = ("Accuracy", "AUC", "F1")
N_TIERS = 5  # classes of the classification task: equal-frequency price tiers

DEFAULT_CONFIG = {
    "max_terms": 300,
    "word2vec": {"d": 50, "window": 5, "epochs": 3, "lr": 0.05, "negatives": 5},
    "lda": {"n_topics": 8, "iterations": 150, "beta": 0.01},
    "bertopic": {"reduce_dims": 5, "n_clusters": 8},
    "linear": {"ridge": 1.0},
    "logistic": {"lr": 0.5, "epochs": 300},
    "mlp": {"hidden": [32], "epochs": 150, "lr": 0.05, "batch_size": 32},
    "cart": {"max_depth": 8, "min_leaf": 2},
    "svm": {"C": 1.0, "kernel": "rbf", "gamma": 0.01, "tol": 1e-3},
    "svr": {"C": 1.0, "epsilon": 0.1, "kernel": "rbf", "gamma": 0.01,
            "max_iter": 2000},
    "forest": {"n_trees": 25, "max_depth": 10, "min_leaf": 2},
    "gbt": {"n_rounds": 30, "learning_rate": 0.3, "lam": 1.0, "max_depth": 3,
            "min_leaf": 2},
}


class MetricError(ValueError):
    pass


def merge_config(overrides: dict | None, defaults: dict = DEFAULT_CONFIG) -> dict:
    """A copy of defaults overlaid with overrides, one level deep: a mapping
    given for a key whose default is a mapping updates a copy of it, any
    other value replaces the default."""
    cfg = {k: (dict(v) if isinstance(v, dict) else v)
           for k, v in defaults.items()}
    for k, v in (overrides or {}).items():
        if isinstance(v, dict) and isinstance(cfg.get(k), dict):
            cfg[k].update(v)
        else:
            cfg[k] = v
    return cfg


def mix_seed(*parts) -> int:
    """Stable derivation of a unit seed from a master seed plus labels."""
    ints = [p if isinstance(p, int) else zlib.crc32(str(p).encode()) for p in parts]
    return int(np.random.SeedSequence(ints).generate_state(1)[0])


# ---------------------------------------------------------------- folds ----

@dataclass
class FoldPlan:
    k: int
    fold_index: np.ndarray
    seed: int

    def train_test(self, fold: int):
        test = np.where(self.fold_index == fold)[0]
        train = np.where(self.fold_index != fold)[0]
        return train, test


def kfold_split(n: int, k: int = 5, seed: int = 0) -> FoldPlan:
    """Seeded shuffle followed by round-robin assignment; fold sizes differ
    by at most one."""
    if n < k:
        raise ValueError("n=%d is smaller than k=%d" % (n, k))
    order = np.random.default_rng(seed).permutation(n)
    fold_index = np.empty(n, dtype=np.int64)
    fold_index[order] = np.arange(n) % k
    return FoldPlan(k, fold_index, seed)


# -------------------------------------------------------------- metrics ----

def regression_metrics(y, yhat, metrics=ERROR_METRICS) -> dict:
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if len(y) != len(yhat):
        raise MetricError("length mismatch")
    out = {}
    diff = y - yhat
    if "MSE" in metrics or "RMSE" in metrics:
        mse = float(np.mean(diff ** 2))
        if "MSE" in metrics:
            out["MSE"] = mse
        if "RMSE" in metrics:
            out["RMSE"] = float(np.sqrt(mse))
    if "MAPE" in metrics:
        if np.any(y == 0):
            raise MetricError("MAPE undefined: target contains zero")
        out["MAPE"] = float(np.mean(np.abs(diff) / np.abs(y)))
    return out


def binary_auc(y_true, scores) -> float:
    """Rank-statistic AUC with midrank (0.5) credit for score ties."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[y_true == 1]
    neg = scores[y_true == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise MetricError("AUC needs both classes present")
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    pos_ranks = ranks[y_true == 1]
    return float((np.sum(pos_ranks) - len(pos) * (len(pos) + 1) / 2.0)
                 / (len(pos) * len(neg)))


def classification_metrics(y, scores, yhat_class) -> dict:
    """Accuracy plus macro AUC and macro F1 over the classes present in y,
    under the one-score-column-per-class convention."""
    y = np.asarray(y, dtype=np.int64)
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    yhat = np.asarray(yhat_class, dtype=np.int64)
    if scores.shape[0] != len(y):
        raise MetricError("score/label shape mismatch")
    present = np.unique(y)
    aucs, f1s = [], []
    for c in present:
        yc = (y == c).astype(np.int64)
        if 0 < yc.sum() < len(yc):
            aucs.append(binary_auc(yc, scores[:, c]))
        tp = int(np.sum((yhat == c) & (y == c)))
        fp = int(np.sum((yhat == c) & (y != c)))
        fn = int(np.sum((yhat != c) & (y == c)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * precision * recall / (precision + recall)
                   if precision + recall else 0.0)
    return {"Accuracy": float(np.mean(y == yhat)),
            "AUC": float(np.mean(aucs)) if aucs else float("nan"),
            "F1": float(np.mean(f1s))}


# --------------------------------------------------------- featurization ----

def fit_embedding_table(texts: list[str], config: dict, seed: int):
    """Skip-gram embedding table under the word2vec settings of config."""
    cfg = merge_config(config)
    w = cfg["word2vec"]
    return train_skipgram(texts, d=w["d"], window=w["window"], epochs=w["epochs"],
                          lr=w["lr"], negatives=w["negatives"], seed=seed,
                          max_terms=cfg["max_terms"])


def fit_representation(name: str, train_texts: list[str], config: dict,
                       seed: int):
    """Fit one text representation on training documents only. Returns
    (train FeatureMatrix, transform(texts) -> FeatureMatrix)."""
    cfg = merge_config(config)
    max_terms = cfg["max_terms"]
    if name == "bow":
        vocab = build_vocabulary(train_texts, max_terms)
        return bow(train_texts, vocab), lambda texts: bow(texts, vocab)
    if name == "tfidf":
        vocab = build_vocabulary(train_texts, max_terms)
        return tfidf(train_texts, vocab), lambda texts: tfidf(texts, vocab)
    if name == "word2vec":
        table = fit_embedding_table(train_texts, cfg, seed)
        return (embedding_features(train_texts, table),
                lambda texts: embedding_features(texts, table))
    if name == "lda":
        l = cfg["lda"]
        model = train_lda(train_texts, l["n_topics"], beta=l["beta"],
                          iterations=l["iterations"], seed=seed,
                          max_terms=max_terms)
        return (topic_features(model.theta, "lda"),
                lambda texts: topic_features(model.infer_theta(texts), "lda"))
    if name == "bertopic":
        b = cfg["bertopic"]
        table = fit_embedding_table(train_texts, cfg, seed)
        train_vecs = embedding_features(train_texts, table).values
        reducer = PCAReducer.fit(train_vecs, b["reduce_dims"])
        _, centroids = kmeans(reducer.transform(train_vecs), b["n_clusters"],
                              seed=seed)

        def transform(texts):
            vecs = embedding_features(texts, table).values
            member = membership_probabilities(reducer.transform(vecs), centroids)
            return topic_features(member, "bertopic")

        return transform(train_texts), transform
    raise ValueError("unknown representation %r" % name)


def fit_family(family: str, X, y, task: str, n_classes: int, cfg: dict,
               seed: int):
    """Fit one learner family for the given task; returns the fitted model.
    Scale-sensitive families are wrapped with fold-fitted standardization.
    linear, svm and gbt classify one-vs-rest over binary members."""
    if family == "mlp":
        m = cfg["mlp"]
        return fit_standardized(fit_mlp, X, y, hidden=tuple(m["hidden"]),
                                epochs=m["epochs"], lr=m["lr"],
                                batch_size=m["batch_size"], seed=seed,
                                task=task, n_classes=n_classes)
    if family == "cart":
        c = cfg["cart"]
        return fit_cart(X, y, max_depth=c["max_depth"], min_leaf=c["min_leaf"],
                        task=task, n_classes=n_classes)
    if family == "forest":
        f = cfg["forest"]
        return fit_forest(X, y, n_trees=f["n_trees"],
                          k_features=max(1, int(np.sqrt(X.shape[1]))),
                          max_depth=f["max_depth"], min_leaf=f["min_leaf"],
                          task=task, seed=seed)

    regression = task == "regression"
    labels = "01"
    if family == "linear" and regression:
        fit = partial(fit_standardized, fit_linear, ridge=cfg["linear"]["ridge"])
    elif family == "linear":
        lg = cfg["logistic"]
        fit = partial(fit_standardized, fit_logistic, lr=lg["lr"],
                      epochs=lg["epochs"])
    elif family == "svm" and regression:
        s = cfg["svr"]
        fit = partial(fit_standardized, fit_svr, C=s["C"], epsilon=s["epsilon"],
                      kernel=s["kernel"], gamma=s["gamma"],
                      max_iter=s["max_iter"])
    elif family == "svm":
        s = cfg["svm"]
        fit = partial(fit_standardized, fit_svm, C=s["C"], kernel=s["kernel"],
                      gamma=s["gamma"], tol=s["tol"], seed=seed)
        labels = "pm1"
    elif family == "gbt":
        g = cfg["gbt"]
        fit = partial(fit_gbt, n_rounds=g["n_rounds"],
                      learning_rate=g["learning_rate"], lam=g["lam"],
                      max_depth=g["max_depth"], min_leaf=g["min_leaf"],
                      loss="squared" if regression else "logistic")
    else:
        raise ValueError("unknown family %r" % family)
    if regression:
        return fit(X, y)
    return one_vs_rest(fit, X, y, n_classes=n_classes, labels=labels)


def model_scores(model, X, task: str):
    """(predictions, score matrix) for metric computation; regression
    models have no score matrix."""
    pred = model.predict(X)
    return pred, None if task == "regression" else model.predict_scores(X)


# ------------------------------------------------------------------ cells ----

@dataclass
class CVData:
    """What the grid and the curve share: documents, structured columns,
    targets, metric names and the fold plan, all from the master seed."""
    texts: list
    struct: FeatureMatrix
    y: np.ndarray
    metrics: list
    plan: FoldPlan
    seed: int

    @classmethod
    def build(cls, products: list[DataProduct], task: str, seed: int,
              k: int) -> "CVData":
        return cls([compose_text(p) for p in products],
                   structured_matrix(products),
                   make_targets(products, TargetSpec(task)),
                   list(ERROR_METRICS if task == "regression" else SCORE_METRICS),
                   kfold_split(len(products), k, mix_seed(seed, "folds")),
                   seed)

    def fold_features(self, rep: str, fold: int, cfg: dict):
        """Fit rep on one fold's training documents. Returns the train and
        test row indices and both feature matrices, structured columns
        appended."""
        train, test = self.plan.train_test(fold)
        feats_train, transform = fit_representation(
            rep, [self.texts[i] for i in train], cfg, mix_seed(self.seed, rep, fold))
        feats_test = transform([self.texts[i] for i in test])
        return (train, test, feats_train.hstack(self.struct.rows(train)),
                feats_test.hstack(self.struct.rows(test)))


def evaluate_cell(family: str, X_train, y_train, X_test, y_test, task: str,
                  cfg: dict, seed: int) -> dict:
    """Fit one family on training rows and score it on test rows; returns
    {metric: value}. MAPE reads NaN when a test target is zero."""
    model = fit_family(family, X_train, y_train, task, N_TIERS, cfg, seed)
    pred, scores = model_scores(model, X_test, task)
    if task == "classification":
        return classification_metrics(y_test, scores, pred)
    try:
        return regression_metrics(y_test, pred)
    except MetricError:
        cell = regression_metrics(y_test, pred, ("MSE", "RMSE"))
        cell["MAPE"] = float("nan")
        return cell


# ------------------------------------------------------------------ units ----

# (fn, *shared) of the pool; set by the initializer in worker processes only
_SHARED: tuple = ()


def _set_shared(*shared) -> None:
    global _SHARED
    _SHARED = shared


def _run_unit(unit):
    fn, *shared = _SHARED
    return fn(*shared, unit)


def _map_units(fn, shared: tuple, units, workers: int) -> list:
    """[fn(*shared, unit) for unit in units], in order. With more than one
    worker and the fork start method, the units run on a process pool of at
    most `workers` processes, capped by the CPUs this process may use; the
    shared arguments reach the workers through fork, not per task."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n = min(workers, cpus, len(units))
    if n <= 1 or not hasattr(os, "fork"):
        return [fn(*shared, unit) for unit in units]
    import multiprocessing  # only pooled runs pay for the import

    with concurrent.futures.ProcessPoolExecutor(
            max_workers=n, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_shared, initargs=(fn,) + shared) as pool:
        return list(pool.map(_run_unit, units))


# ------------------------------------------------------------------ grid ----

@dataclass
class ExperimentReport:
    task: str
    representations: list[str]
    families: list[str]
    metrics: list[str]
    values: dict = field(default_factory=dict)   # metric -> (R, F) array
    mean: dict = field(default_factory=dict)     # metric -> (R,) array
    rank: dict = field(default_factory=dict)     # metric -> (R,) int array
    errors: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def mean_label(self) -> str:
        return "ME" if self.task == "regression" else "MR"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["metric", "method"] + self.families
                       + [self.mean_label, "Rank"])
            for metric in self.metrics:
                for i, rep in enumerate(self.representations):
                    w.writerow([metric, rep]
                               + [format(v, ".6f") for v in self.values[metric][i]]
                               + [format(self.mean[metric][i], ".6f"),
                                  int(self.rank[metric][i])])

    def to_text(self) -> str:
        width = max(10, max(len(r) for r in self.representations) + 2)
        cols = self.families + [self.mean_label, "Rank"]
        lines = []
        for key in sorted(self.metadata):
            lines.append("# %s: %s" % (key, self.metadata[key]))
        header = "Method".ljust(width) + "".join(c.rjust(10) for c in cols)
        for metric in self.metrics:
            lines.append("")
            lines.append("== %s ==" % metric)
            lines.append(header)
            for i, rep in enumerate(self.representations):
                row = rep.ljust(width)
                row += "".join(format(v, ".4f").rjust(10)
                               for v in self.values[metric][i])
                row += format(self.mean[metric][i], ".4f").rjust(10)
                row += str(int(self.rank[metric][i])).rjust(10)
                lines.append(row)
        if self.errors:
            lines.append("")
            lines.append("== cell failures ==")
            for rep, fam, fold, msg in self.errors:
                lines.append("%s / %s / fold %s: %s" % (rep, fam, fold, msg))
        return "\n".join(lines) + "\n"


def _rank(means: np.ndarray, ascending: bool) -> np.ndarray:
    key = np.where(np.isnan(means), np.inf, means if ascending else -means)
    order = np.argsort(key, kind="stable")
    ranks = np.empty(len(means), dtype=np.int64)
    ranks[order] = np.arange(1, len(means) + 1)
    return ranks


def _grid_unit(data: CVData, cfg: dict, families: list, task: str, unit):
    """One (representation, fold) of the grid: (errors, {family index:
    cell}). A failed representation fit or cell is recorded, not raised."""
    rep, fold = unit
    try:
        train, test, ftr, fte = data.fold_features(rep, fold, cfg)
    except Exception as exc:  # noqa: BLE001 - recorded in the report
        return [(rep, "*", fold, str(exc))], {}
    errors, cells = [], {}
    for fi, family in enumerate(families):
        try:
            cells[fi] = evaluate_cell(family, ftr.values, data.y[train],
                                      fte.values, data.y[test], task, cfg,
                                      mix_seed(data.seed, rep, fold, family))
        except Exception as exc:  # noqa: BLE001
            errors.append((rep, family, fold, str(exc)))
    return errors, cells


def run_grid(products: list[DataProduct], representations=None, families=None,
             task: str = "regression", config: dict | None = None,
             seed: int = 0, k: int = 5, workers: int = 1) -> ExperimentReport:
    """Evaluate every representation x family cell under k-fold CV.

    Vocabularies, embeddings, topic models and standardization are all
    fitted on training folds only. Regression targets are log prices;
    classification targets are five equal-frequency price tiers. A failed
    fold or cell is recorded in the report's errors and left out of the
    means. The (representation, fold) units run on up to `workers`
    processes; the report does not depend on how many.
    """
    representations = list(REPRESENTATIONS if representations is None
                           else representations)
    families = list(FAMILIES if families is None else families)
    if not representations or not families:
        raise ValueError("empty grid axes")
    cfg = merge_config(config)
    data = CVData.build(products, task, seed, k)

    report = ExperimentReport(task, representations, families, data.metrics)
    report.metadata["target"] = ("log(price), metrics in log space"
                                 if task == "regression"
                                 else "five equal-frequency price tiers")
    report.metadata["cv"] = "%d-fold, seed %d" % (k, seed)
    acc = {m: np.full((len(representations), len(families), k), np.nan)
           for m in data.metrics}

    units = [(rep, fold) for rep in representations for fold in range(k)]
    results = _map_units(_grid_unit, (data, cfg, families, task), units, workers)
    for u, (errors, cells) in enumerate(results):
        ri, fold = divmod(u, k)
        report.errors += errors
        for fi, cell in cells.items():
            for m in data.metrics:
                acc[m][ri, fi, fold] = cell[m]

    for m in data.metrics:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report.values[m] = np.nanmean(acc[m], axis=2)
            report.mean[m] = np.nanmean(report.values[m], axis=1)
        report.rank[m] = _rank(report.mean[m], ascending=m in ERROR_METRICS)
    return report


# ----------------------------------------------------------------- curve ----

@dataclass
class FeatureCurve:
    representation: str
    family: str
    task: str
    rows: list  # (m, {metric: value})

    def to_csv(self, path) -> None:
        metrics = list(self.rows[0][1]) if self.rows else []
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["m"] + metrics)
            for m, vals in self.rows:
                w.writerow([m] + [format(vals[name], ".6f") for name in metrics])


def _curve_unit(data: CVData, cfg: dict, representation: str, family: str,
                m_values: list, task: str, fold: int):
    """One fold of the curve: (whether an m was clamped, [cell per m])."""
    train, test, ftr, fte = data.fold_features(representation, fold, cfg)
    trace = mrmr_select(ftr, data.y[train], min(max(m_values), ftr.n_cols),
                        target_is_discrete=task == "classification")
    cells = []
    for m in m_values:
        sel = trace.selected[:min(m, ftr.n_cols)]
        cells.append(evaluate_cell(family, ftr.values[:, sel], data.y[train],
                                   fte.values[:, sel], data.y[test], task, cfg,
                                   mix_seed(data.seed, representation, fold,
                                            family, m)))
    return max(m_values) > ftr.n_cols, cells


def feature_curve(products: list[DataProduct], representation: str,
                  family: str, m_values, task: str = "regression",
                  config: dict | None = None, seed: int = 0,
                  k: int = 5, workers: int = 1) -> FeatureCurve:
    """Metric vs number of mRMR-selected features, averaged over CV folds.
    m values beyond the feature count are clamped with a warning. Any
    failed fold raises. The folds run on up to `workers` processes; the
    curve does not depend on how many."""
    m_values = list(m_values)
    if m_values != sorted(m_values):
        raise ValueError("m_values must be ascending")
    cfg = merge_config(config)
    data = CVData.build(products, task, seed, k)

    folds = _map_units(_curve_unit,
                       (data, cfg, representation, family, m_values, task),
                       range(k), workers)
    if any(clamped for clamped, _ in folds):
        warnings.warn("some m values exceeded the feature count and were clamped")
    rows = [(m, {name: float(np.mean([cells[i][name] for _, cells in folds]))
                 for name in data.metrics})
            for i, m in enumerate(m_values)]
    return FeatureCurve(representation, family, task, rows)
