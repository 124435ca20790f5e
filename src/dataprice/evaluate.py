"""Cross-validated evaluation: fold plans, regression/classification
metrics, the representation x model experiment grid, and mRMR feature-count
curves."""

from __future__ import annotations

import csv
import os
import warnings
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .corpus import (DataProduct, TargetSpec, compose_text, make_targets,
                     structured_matrix)
from .featsel import mrmr_select
from .matrix import FeatureMatrix
from .models import (ModelError, OvREnsemble, fit_cart, fit_forest, fit_gbts,
                     fit_linear, fit_logistics, fit_mlp, fit_standardized,
                     fit_svms, fit_svr, one_vs_rest)
from .textrep import (PCAReducer, build_vocabulary, bow, embedding_features,
                      kmeans, membership_probabilities, tfidf, topic_features,
                      train_lda, train_skipgram)

REPRESENTATIONS = ["bow", "tfidf", "word2vec", "lda", "bertopic"]
FAMILIES = ["linear", "mlp", "cart", "svm", "forest", "gbt"]
ERROR_METRICS = ("MSE", "RMSE", "MAPE")
SCORE_METRICS = ("Accuracy", "AUC", "F1")
N_TIERS = 5  # classes of the classification task: equal-frequency price tiers

# Each section but bertopic reaches its fitter whole, with **: the families'
# by _FITTERS, word2vec's train_skipgram and lda's train_lda. So each of
# their keys is a keyword of that fitter.
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
            "max_iter": None},
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
    # each run of tied scores shares the midrank of its run
    _, run, c = np.unique(scores, return_inverse=True, return_counts=True)
    pos_ranks = (np.cumsum(c) - 0.5 * (c - 1))[run][y_true == 1]
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
    return train_skipgram(texts, **cfg["word2vec"], seed=seed,
                          max_terms=cfg["max_terms"])


# The representations that read a skip-gram embedding table: word2vec pools
# its vectors, and bertopic clusters the pooled vectors (Grootendorst 2022).
EMBEDDED = ("word2vec", "bertopic")


def fit_representation(name: str, train_texts: list[str], config: dict,
                       seed: int, table=None):
    """Fit one text representation on training documents only. Returns
    (train FeatureMatrix, transform(texts) -> FeatureMatrix). word2vec and
    bertopic read `table`, an embedding table fitted on the same documents;
    without one they fit it here under seed. bertopic's k-means draws from
    seed either way."""
    cfg = merge_config(config)
    max_terms = cfg["max_terms"]
    if name in EMBEDDED and table is None:
        table = fit_embedding_table(train_texts, cfg, seed)
    if name == "bow":
        vocab = build_vocabulary(train_texts, max_terms)
        return bow(train_texts, vocab), lambda texts: bow(texts, vocab)
    if name == "tfidf":
        vocab = build_vocabulary(train_texts, max_terms)
        return tfidf(train_texts, vocab), lambda texts: tfidf(texts, vocab)
    if name == "word2vec":
        return (embedding_features(train_texts, table),
                lambda texts: embedding_features(texts, table))
    if name == "lda":
        model = train_lda(train_texts, **cfg["lda"], seed=seed,
                          max_terms=max_terms)
        return (topic_features(model.theta, "lda"),
                lambda texts: topic_features(model.infer_theta(texts), "lda"))
    if name == "bertopic":
        b = cfg["bertopic"]
        train_vecs = embedding_features(train_texts, table).values
        reducer = PCAReducer.fit(train_vecs, b["reduce_dims"])
        _, centroids = kmeans(reducer.transform(train_vecs), b["n_clusters"],
                              seed=seed)

        def topics(vecs):
            member = membership_probabilities(reducer.transform(vecs), centroids)
            return topic_features(member, "bertopic")

        return topics(train_vecs), lambda texts: topics(
            embedding_features(texts, table).values)
    raise ValueError("unknown representation %r" % name)


class _Fitter(NamedTuple):
    section: str               # the config section, passed with **
    fit: Callable
    takes: tuple = ()          # what else it takes, by keyword
    ovr: dict | None = None    # one_vs_rest's keywords over a binary fitter
    # fit takes a list of targets and returns one model per target, and
    # with n_cols fits target t on the first n_cols[t] columns of X; it
    # takes no seed, so cells on column prefixes can share one call
    joint: bool = False


_TASKS = ("regression", "classification")


def _on_prefixes(fit, X, targets, n_cols=None, **kwargs):
    """fit(X, targets), a joint fitter's call, for a fitter that takes no
    n_cols: with n_cols, the targets of each count c are fitted together
    on the view X[:, :c], so target t's model equals its fit on the first
    n_cols[t] columns of X."""
    if n_cols is None:
        return fit(X, targets, **kwargs)
    n_cols = np.asarray(n_cols).tolist()
    if len(n_cols) != len(targets) or not all(
            1 <= c <= X.shape[1] for c in n_cols):
        raise ModelError("n_cols needs one count in 1..%d per target"
                         % X.shape[1])
    models = [None] * len(targets)
    for c in dict.fromkeys(n_cols):
        which = [t for t, k in enumerate(n_cols) if k == c]
        for t, model in zip(which, fit(X[:, :c], [targets[t] for t in which],
                                       **kwargs)):
            models[t] = model
    return models


# Each family's fitter for each task. mlp, cart and forest fit either task
# themselves. The others classify one-vs-rest, each fitting the members of
# all classes in one call: logistic descents run together, SVM duals
# (on -1/+1 labels) share one kernel matrix, and the boosters grow
# together. The scale-sensitive families fit on fold-standardized columns.
_FITTERS = {
    "linear": {"regression": _Fitter("linear", partial(fit_standardized, fit_linear)),
               "classification": _Fitter(
                   "logistic", partial(_on_prefixes, partial(
                       fit_standardized, fit_logistics)), ovr={}, joint=True)},
    "mlp": dict.fromkeys(_TASKS, _Fitter(
        "mlp", partial(fit_standardized, fit_mlp), ("task", "n_classes", "seed"))),
    "cart": dict.fromkeys(_TASKS, _Fitter("cart", fit_cart, ("task", "n_classes"))),
    "svm": {"regression": _Fitter("svr", partial(fit_standardized, fit_svr)),
            "classification": _Fitter(
                "svm", partial(_on_prefixes, partial(fit_standardized, fit_svms)),
                ovr={"labels": "pm1"}, joint=True)},
    "forest": dict.fromkeys(_TASKS, _Fitter("forest", fit_forest,
                                            ("task", "seed", "k_features"))),
    "gbt": {"regression": _Fitter("gbt", partial(fit_gbts, loss="squared"),
                                  joint=True),
            "classification": _Fitter("gbt", partial(fit_gbts, loss="logistic"),
                                      ovr={}, joint=True)},
}


def fit_family(family: str, X, y, task: str, n_classes: int, cfg: dict,
               seed: int, n_cols=None):
    """Fit one learner family for the given task, as its _FITTERS entry
    says; returns the fitted model. With n_cols, which needs a joint entry,
    one call returns a model per count c, fitted on the first c columns of
    X and equal to a fit on X[:, :c]."""
    if task not in _FITTERS.get(family, {}):
        raise ValueError("unknown family %r or task %r" % (family, task))
    f = _FITTERS[family][task]
    if n_cols is not None and not f.joint:
        raise ValueError("%s does not fit column prefixes in one call" % family)
    given = {"task": task, "n_classes": n_classes, "seed": seed,
             # each forest node draws about sqrt(p) of the p columns
             "k_features": max(1, int(np.sqrt(np.shape(X)[1])))}
    fit = partial(f.fit, **cfg[f.section], **{k: given[k] for k in f.takes})
    if f.ovr is not None:
        return one_vs_rest(fit, X, y, n_classes=n_classes, joint=f.joint,
                           n_cols=n_cols, **f.ovr)
    if not f.joint:
        return fit(X, y)
    if n_cols is None:
        return fit(X, [y])[0]
    return fit(X, [y] * len(n_cols), n_cols=n_cols)


def model_scores(model, X, task: str):
    """(predictions, score matrix) for metric computation; regression
    models have no score matrix. A one-vs-rest ensemble's predictions are
    read from its score matrix, as its predict reads them."""
    if task == "regression":
        return model.predict(X), None
    scores = model.predict_scores(X)
    if isinstance(model, OvREnsemble):
        return OvREnsemble.decide(scores), scores
    return model.predict(X), scores


# ------------------------------------------------------------------ cells ----

@dataclass
class CVData:
    """What every fold unit reads: documents, structured columns, targets,
    metric names and the fold plan, all from the master seed."""
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


def cell_metrics(model, X_test, y_test, task: str) -> dict:
    """{metric: value} of a fitted model on test rows; MAPE reads NaN when
    a test target is zero."""
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
    import concurrent.futures  # only pooled runs pay for these imports
    import multiprocessing

    with concurrent.futures.ProcessPoolExecutor(
            max_workers=n, mp_context=multiprocessing.get_context("fork"),
            initializer=_set_shared, initargs=(fn,) + shared) as pool:
        return list(pool.map(_run_unit, units))


def _failure(exc: Exception) -> str:
    return "%s: %s" % (type(exc).__name__, exc)


def _fold_unit(data: CVData, cfg: dict, task: str, cells: list, unit):
    """One (representations, fold) unit. When any of the representations is
    in EMBEDDED, the fold's embedding table is fitted once, under word2vec's
    seed label whichever of them the unit holds, and read by each of them.
    Returns _score_fold's result for each representation, in order; a
    failed table fit is an error of each."""
    reps, fold = unit
    train, test = data.plan.train_test(fold)
    train_texts = [data.texts[i] for i in train]
    table = None
    if any(rep in EMBEDDED for rep in reps):
        try:
            table = fit_embedding_table(train_texts, cfg,
                                        mix_seed(data.seed, "word2vec", fold))
        except ValueError as exc:
            return [([(rep, "*", fold, _failure(exc))], {}, False)
                    for rep in reps]
    return [_score_fold(data, cfg, task, cells, rep, fold,
                        {"table": table} if rep in EMBEDDED else {})
            for rep in reps]


def _score_fold(data: CVData, cfg: dict, task: str, cells: list, rep: str,
                fold: int, shared: dict):
    """One representation on one fold. The representation is fitted once on
    the fold's training documents, with the fitted parts it shares (the
    embedding table) as keywords, and the structured columns are appended.
    Then each (family, m) cell is scored on all columns when m is None, else
    on the first m of the fold's mRMR order. The m cells of a family whose
    _FITTERS entry is joint share one fit_family call on the longest
    prefix, which returns a model per cell; every other cell fits alone.
    Returns (errors, {cell index: metrics}, whether an m exceeded the
    column count). A fit or score that fails with a ValueError (a model,
    metric, linear algebra or size error) is recorded as an error of each
    cell it serves, its message led by the exception's type; anything else
    raises."""
    train, test = data.plan.train_test(fold)
    ms = [m for _, m in cells if m is not None]
    try:
        feats, transform = fit_representation(
            rep, [data.texts[i] for i in train], cfg,
            mix_seed(data.seed, rep, fold), **shared)
        ftr = feats.hstack(data.struct.rows(train))
        fte = transform([data.texts[i] for i in test]).hstack(data.struct.rows(test))
        if ms:
            order = mrmr_select(ftr, data.y[train], max(ms),
                                target_is_discrete=task == "classification").selected
    except ValueError as exc:
        return [(rep, "*", fold, _failure(exc))], {}, False
    # the cells of each fit_family call: a joint family's m cells share one,
    # keyed by the family; every other cell has its own, keyed by its index
    fits = {}
    for i, (family, m) in enumerate(cells):
        joint = m is not None and getattr(
            _FITTERS.get(family, {}).get(task), "joint", False)
        fits.setdefault(family if joint else i, []).append(i)
    errors, scores = [], {}
    for key, group in fits.items():
        family, m = cells[group[0]]
        cols = [slice(None) if cells[i][1] is None else order[:cells[i][1]]
                for i in group]
        labels = (rep, fold, family) if m is None else (rep, fold, family, m)
        try:
            if key == family:
                n_cols = [min(cells[i][1], len(order)) for i in group]
                models = fit_family(family, ftr.values[:, order[:max(n_cols)]],
                                    data.y[train], task, N_TIERS, cfg,
                                    mix_seed(data.seed, *labels),
                                    n_cols=n_cols)
            else:
                models = [fit_family(family, ftr.values[:, cols[0]],
                                     data.y[train], task, N_TIERS, cfg,
                                     mix_seed(data.seed, *labels))]
        except ValueError as exc:
            errors += [(rep, family, fold, _failure(exc))] * len(group)
            continue
        for i, c in zip(group, cols):
            try:
                # popped, so that no model outlives its scoring into the
                # next fit
                scores[i] = cell_metrics(models.pop(0), fte.values[:, c],
                                         data.y[test], task)
            except ValueError as exc:
                errors.append((rep, family, fold, _failure(exc)))
    return errors, scores, bool(ms) and max(ms) > ftr.n_cols


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


def run_grid(products: list[DataProduct], representations=None, families=None,
             task: str = "regression", config: dict | None = None,
             seed: int = 0, k: int = 5, workers: int = 1) -> ExperimentReport:
    """Evaluate every representation x family cell under k-fold CV.

    Vocabularies, embeddings, topic models and standardization are all
    fitted on training folds only. Regression targets are log prices;
    classification targets are five equal-frequency price tiers. A fold or
    cell that fails with a ValueError is recorded in the report's errors and
    left out of the means; any other exception raises.

    Each fold of a representation is one unit, except that word2vec and
    bertopic, when the grid holds both, share each fold's unit and its one
    embedding table (_fold_unit). The units run on up to `workers`
    processes; the report, its errors in (representation, fold) order, does
    not depend on how many.
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

    # the grid's embedded representations share one unit per fold, in the
    # place of the first of them; a repeated representation runs once
    reps = list(dict.fromkeys(representations))
    embedded = tuple(rep for rep in reps if rep in EMBEDDED)
    groups = [embedded if rep in EMBEDDED else (rep,)
              for rep in reps if rep not in embedded[1:]]
    units = [(group, fold) for group in groups for fold in range(k)]
    cells = [(family, None) for family in families]
    results = {}
    for (group, fold), out in zip(units, _map_units(
            _fold_unit, (data, cfg, task, cells), units, workers)):
        results.update(((rep, fold), r) for rep, r in zip(group, out))
    for ri, rep in enumerate(representations):
        for fold in range(k):
            errors, scores, _ = results[rep, fold]
            report.errors += errors
            for fi, cell in scores.items():
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


def feature_curve(products: list[DataProduct], representation: str,
                  family: str, m_values, task: str = "regression",
                  config: dict | None = None, seed: int = 0,
                  k: int = 5, workers: int = 1) -> FeatureCurve:
    """Metric vs number of mRMR-selected features, averaged over CV folds.
    m values beyond the feature count are clamped with a warning. A family
    whose _FITTERS entry is joint (gbt; logistic and svm in classification)
    fits all of a fold's m values in one call, each model equal to its own
    fit on the first m columns. Any failed fold or cell raises a ValueError
    that names the first failed (representation, family, fold). The folds
    run on up to `workers` processes; the curve does not depend on how
    many."""
    m_values = list(m_values)
    if not m_values or m_values != sorted(m_values) or m_values[0] < 1:
        raise ValueError("m_values must be non-empty, ascending and >= 1")
    cfg = merge_config(config)
    data = CVData.build(products, task, seed, k)

    cells = [(family, m) for m in m_values]
    folds = [out for out, in _map_units(
        _fold_unit, (data, cfg, task, cells),
        [((representation,), fold) for fold in range(k)], workers)]
    errors = [e for errs, _, _ in folds for e in errs]
    if errors:
        raise ValueError("curve cell %s / %s / fold %s failed: %s" % errors[0])
    if any(clamped for _, _, clamped in folds):
        warnings.warn("some m values exceeded the feature count and were clamped")
    rows = [(m, {name: float(np.mean([scores[i][name] for _, scores, _ in folds]))
                 for name in data.metrics})
            for i, m in enumerate(m_values)]
    return FeatureCurve(representation, family, task, rows)
