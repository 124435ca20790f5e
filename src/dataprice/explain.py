"""Per-prediction attributions.

CART, forest and GBT models, and one-vs-rest ensembles of them, get exact
path-dependent attributions computed from the node cover counts recorded at
fit time, all by one method that reads each model as a weighted sum of
trees. Every other model, a standardized tree model included (its trees
split on scaled columns), gets a sampling kernel-weighted least-squares
approximation against a background dataset. For an SVR, or the SVM
member of a one-vs-rest ensemble, that method scores its coalitions from
each background row's kernel terms, updated by the columns where the row
differs from the explained one, instead of predicting the imputed rows.
Both methods satisfy local accuracy: the attributions plus the expected
value sum to the model output for the explained row.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .evaluate import mix_seed
from .models import (CARTModel, ForestModel, GBTModel, OvREnsemble,
                     StandardizedModel, SVMModel, SVRModel)
from .models.svm import rbf_in_place, sq_distances
from .textrep.word2vec import EmbeddingTable


class ExplainError(ValueError):
    pass


# ----------------------------------------------------- tree attributions ----

def _extend(path, pz, po, pi):
    """Grow the subset-weight path by one split. Each element is
    [feature, zero_fraction, one_fraction, weight]."""
    path = [p[:] for p in path]
    path.append([pi, pz, po, 1.0 if not path else 0.0])
    l = len(path) - 1
    for i in range(l - 1, -1, -1):
        path[i + 1][3] += po * path[i][3] * (i + 1) / (l + 1)
        path[i][3] = pz * path[i][3] * (l - i) / (l + 1)
    return path


def _unwind(path, i):
    """Undo the extension that added element i."""
    path = [p[:] for p in path]
    l = len(path) - 1
    n = path[l][3]
    z, o = path[i][1], path[i][2]
    for j in range(l - 1, -1, -1):
        if o != 0:
            t = path[j][3]
            path[j][3] = n * (l + 1) / ((j + 1) * o)
            n = t - path[j][3] * z * (l - j) / (l + 1)
        else:
            path[j][3] = path[j][3] * (l + 1) / (z * (l - j))
    for j in range(i, l):
        path[j] = [path[j + 1][0], path[j + 1][1], path[j + 1][2], path[j][3]]
    return path[:-1]


def _unwound_sum(path, i):
    """Total weight the path would carry if element i were removed."""
    l = len(path) - 1
    z, o = path[i][1], path[i][2]
    n = path[l][3]
    total = 0.0
    for j in range(l - 1, -1, -1):
        if o != 0:
            t = n * (l + 1) / ((j + 1) * o)
            total += t
            n = path[j][3] - t * z * (l - j) / (l + 1)
        else:
            total += path[j][3] * (l + 1) / (z * (l - j))
    return total


def _default_leaf_value(node):
    return float(node["value"])


def tree_shap(root, x, n_features: int, leaf_value=_default_leaf_value) -> np.ndarray:
    """Exact per-feature attributions for one tree and one row, following
    split cover fractions down unvisited branches. Returns phi with
    sum(phi) == tree(x) - tree_expected(root)."""
    x = np.asarray(x, dtype=np.float64)
    phi = np.zeros(n_features)

    def recurse(node, path, pz, po, pi):
        path = _extend(path, pz, po, pi)
        if node["leaf"]:
            v = leaf_value(node)
            for i in range(1, len(path)):
                w = _unwound_sum(path, i)
                phi[path[i][0]] += w * (path[i][2] - path[i][1]) * v
            return
        j, thr = node["feature"], node["threshold"]
        hot, cold = ((node["left"], node["right"]) if x[j] <= thr
                     else (node["right"], node["left"]))
        iz, io = 1.0, 1.0
        for k in range(1, len(path)):
            if path[k][0] == j:
                iz, io = path[k][1], path[k][2]
                path = _unwind(path, k)
                break
        recurse(hot, path, iz * hot["n"] / node["n"], io, j)
        recurse(cold, path, iz * cold["n"] / node["n"], 0.0, j)

    recurse(root, [], 1.0, 1.0, -1)
    return phi


def tree_expected(root, leaf_value=_default_leaf_value) -> float:
    """Cover-weighted mean leaf value: the model output for a row about
    which nothing is known."""
    if root["leaf"]:
        return leaf_value(root)
    wl = root["left"]["n"] / root["n"]
    return (wl * tree_expected(root["left"], leaf_value)
            + (1 - wl) * tree_expected(root["right"], leaf_value))


def _vote(class_index):
    """A leaf's hard prediction as a 1-or-0 vote for the class."""
    return lambda node: 1.0 if int(node["value"]) == class_index else 0.0


def _class_leaf_value(class_index):
    vote = _vote(class_index)
    return lambda node: (float(node["probs"][class_index]) if "probs" in node
                         else vote(node))


def _tree_sum(model, class_index):
    """A tree model's output as (offset + weight * sum of trees) / divisor:
    returns ([(root, columns)], leaf_value, weight, offset, divisor), where
    a tree reads the given columns of the row.

    CART explains the leaf probability of the class, a forest its vote
    fraction (a tree votes its hard prediction), and GBT the raw boosted
    score (log-odds under the logistic loss) whatever the class."""
    if isinstance(model, GBTModel):
        return ([(root, slice(None)) for root in model.trees],
                _default_leaf_value, model.learning_rate, model.base_score, 1)
    regression = model.task == "regression"
    if isinstance(model, ForestModel):
        return (list(zip((t.root for t in model.trees), model.feature_subsets)),
                _default_leaf_value if regression else _vote(class_index),
                1.0, 0.0, len(model.trees))
    return ([(model.root, slice(None))],
            _default_leaf_value if regression else _class_leaf_value(class_index),
            1.0, 0.0, 1)


def _is_tree(model) -> bool:
    return isinstance(model, (CARTModel, ForestModel, GBTModel))


# --------------------------------------------------------- kernel method ----

def shapley_kernel_weight(n_features: int, subset_size: int) -> float:
    s, M = subset_size, n_features
    if s == 0 or s == M:
        return float("inf")
    return (M - 1) / (comb(M, s) * s * (M - s))


def kernel_shap(predict_fn, x, background, n_samples: int = 2048,
                seed: int = 0, *, coalition_values=None):
    """Sampling approximation of per-feature attributions for an arbitrary
    scalar-output model.

    Coalitions are scored by evaluating the model with absent features
    replaced by each background row in turn and averaging, or by
    coalition_values(x, background, Z) when given, which must return the
    same averages for the 0/1 coalition matrix Z. Attributions solve the
    kernel-weighted least squares with the local-accuracy constraint
    enforced exactly. Returns (phi, expected_value)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    M = len(x)
    if background.shape[1] != M:
        raise ExplainError("background column count mismatch")
    if len(background) == 0:
        raise ExplainError("the background dataset has no rows")
    f0 = float(np.mean(predict_fn(background)))
    fx = float(np.asarray(predict_fn(x.reshape(1, -1)))[0])
    if M == 1:
        return np.array([fx - f0]), f0

    rng = np.random.default_rng(seed)
    total = 2 ** M - 2 if M <= 30 else n_samples + 1
    if total <= n_samples:
        subsets = []
        weights = []
        for code in range(1, 2 ** M - 1):
            z = np.array([(code >> b) & 1 for b in range(M)], dtype=np.float64)
            subsets.append(z)
            weights.append(shapley_kernel_weight(M, int(z.sum())))
        Z = np.array(subsets)
        w = np.array(weights)
    else:
        if n_samples < 2:
            raise ExplainError("n_samples must be >= 2 to sample coalitions, "
                               "got %d" % n_samples)
        sizes = np.arange(1, M)
        size_p = np.array([(M - 1) / (s * (M - s)) for s in sizes])
        size_p /= size_p.sum()
        Z = np.zeros((n_samples, M))
        for i in range(0, n_samples, 2):
            s = int(rng.choice(sizes, p=size_p))
            idx = rng.choice(M, size=s, replace=False)
            Z[i, idx] = 1.0
            if i + 1 < n_samples:
                Z[i + 1] = 1.0 - Z[i]  # paired complement
        w = np.ones(len(Z))

    # model value of each coalition: present features from x, absent ones
    # imputed from every background row, averaged
    if coalition_values is not None:
        fz = coalition_values(x, background, Z)
    else:
        fz = np.empty(len(Z))
        for i, z in enumerate(Z):
            rows = np.where(z[None, :] > 0, x[None, :], background)
            fz[i] = float(np.mean(predict_fn(rows)))

    # eliminate the last attribution with the constraint sum(phi) = fx - f0
    y = fz - f0 - Z[:, -1] * (fx - f0)
    A = Z[:, :-1] - Z[:, [-1]]
    sw = np.sqrt(w)
    sol, *_ = np.linalg.lstsq(A * sw[:, None], y * sw, rcond=None)
    phi = np.empty(M)
    phi[:-1] = sol
    phi[-1] = (fx - f0) - sol.sum()
    return phi, f0


def _kernel_machine(model, class_index):
    """(standardizer or None, SVM or SVR) when the explained output is a
    kernel machine's decision value: an SVR's prediction, or the score of
    the one-vs-rest member for the class. None for every other model."""
    if isinstance(model, OvREnsemble):
        model = model.members[class_index]
    std = None
    if isinstance(model, StandardizedModel):
        std, model = model.standardizer, model.inner
    return (std, model) if isinstance(model, (SVMModel, SVRModel)) else None


def _kernel_machine_values(std, svm, x, background, Z):
    """kernel_shap's coalition values for a kernel machine, computed without
    the imputed rows. Such a row differs from its background row b only in
    the columns J where x and b differ, so its squared distance to a
    support vector s is |b - s|^2 + Z[:, J] @ ((x - b)(x + b - 2s))_J, and
    its dot product with s is b.s + Z[:, J] @ ((x - b) s)_J. One background
    row at a time keeps each temporary at coalitions x support vectors."""
    if std is not None:  # elementwise, so it commutes with the imputation
        x, background = std.transform(x), std.transform(background)
    rbf = svm.kernel == "rbf"
    S_cols = np.ascontiguousarray(svm.support_vectors.T)
    base = (sq_distances(background, svm.support_vectors, svm.sv_sq) if rbf
            else background @ S_cols)
    total = np.zeros(len(Z))
    for b, base_b in zip(background, base):
        J = np.flatnonzero(x != b)
        update = S_cols[J]
        if rbf:
            update *= -2.0
            update += (x + b)[J, None]
        update *= (x - b)[J, None]
        K = Z[:, J] @ update
        K += base_b
        if rbf:
            rbf_in_place(K, svm.gamma)
        total += K @ svm.coef
    return total / len(background) + svm.b


# ---------------------------------------------------------- dispatching ----

def shap_values(model, X, background=None, n_samples: int = 2048,
                seed: int = 0, class_index: int | None = None):
    """Attribution matrix (one row per explained row) plus the expected
    value. CART, forest and GBT models, and one-vs-rest ensembles of them,
    use the exact tree method; everything else, standardized models
    included, uses the kernel method and requires a background dataset.
    The kernel method scores an SVR's or a one-vs-rest SVM member's
    coalitions by _kernel_machine_values, and any other model's by
    predicting the imputed rows.

    For classifiers, class_index picks the score column to explain; it
    defaults to each row's predicted class for the tree method and must be
    given explicitly for the kernel method."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, p = X.shape
    ovr = isinstance(model, OvREnsemble) and all(
        _is_tree(m) or m.family == "constant_score" for m in model.members)

    if ovr or _is_tree(model):
        if class_index is not None:
            classes = [class_index] * n
        elif model.task == "classification" and not isinstance(model, GBTModel):
            classes = model.predict(X)  # a GBT's raw score names no class
        else:
            classes = [None] * n
        phi = np.zeros((n, p))
        expected = np.zeros(n)
        for i, c in enumerate(classes):
            if ovr:
                member = model.members[int(c)]
                if member.family == "constant_score":
                    expected[i] = member.SCORE
                    continue
                phi[i:i + 1], expected[i:i + 1] = shap_values(member, X[i:i + 1])
                continue
            trees, leaf_value, w, offset, divisor = _tree_sum(model, c)
            total = offset
            for root, cols in trees:
                x = X[i, cols]
                phi[i, cols] += w * tree_shap(root, x, len(x), leaf_value)
                total += w * tree_expected(root, leaf_value)
            phi[i] /= divisor
            expected[i] = total / divisor
        return phi, expected

    if background is None:
        raise ExplainError("a background dataset is required for this model")
    if model.task == "classification":
        if class_index is None:
            raise ExplainError("class_index is required to explain a "
                               "classifier with the kernel method")
        fn = lambda rows: np.asarray(model.predict_scores(rows))[:, class_index]
    else:
        fn = lambda rows: np.asarray(model.predict(rows), dtype=np.float64)
    machine = _kernel_machine(model, class_index)
    values = (None if machine is None
              else partial(_kernel_machine_values, *machine))
    rows = [kernel_shap(fn, X[i], background, n_samples, mix_seed(seed, i),
                        coalition_values=values)
            for i in range(n)]
    return np.stack([r[0] for r in rows]), np.array([r[1] for r in rows])


# ------------------------------------------------------------- summaries ----

@dataclass
class ImportanceReport:
    columns: list[str]
    mean_abs: np.ndarray  # per-feature mean |attribution|

    def top(self, k: int = 20):
        order = np.argsort(-self.mean_abs, kind="stable")
        return [(self.columns[i], float(self.mean_abs[i])) for i in order[:k]]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["rank", "feature", "mean_abs_attribution"])
            for r, (name, v) in enumerate(self.top(len(self.columns)), 1):
                w.writerow([r, name, format(v, ".8g")])


def global_importance(phi: np.ndarray, columns: list[str]) -> ImportanceReport:
    phi = np.atleast_2d(np.asarray(phi, dtype=np.float64))
    if phi.shape[1] != len(columns):
        raise ExplainError("attribution / column count mismatch")
    return ImportanceReport(list(columns), np.mean(np.abs(phi), axis=0))


def beeswarm_csv(phi: np.ndarray, X: np.ndarray, columns: list[str],
                 path) -> None:
    """Long-format per-point attribution table: one row per (sample,
    feature), carrying the feature value for color mapping downstream."""
    phi = np.atleast_2d(phi)
    X = np.atleast_2d(X)
    if phi.shape != X.shape or phi.shape[1] != len(columns):
        raise ExplainError("shape mismatch between attributions and data")
    order = np.argsort(-np.mean(np.abs(phi), axis=0), kind="stable")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["feature", "sample", "feature_value", "attribution"])
        for j in order:
            for i in range(phi.shape[0]):
                w.writerow([columns[j], i, format(X[i, j], ".8g"),
                            format(phi[i, j], ".8g")])


def embedding_keywords(table: EmbeddingTable, dimension: int,
                       k: int = 15) -> dict:
    """Vocabulary terms whose vectors load most strongly on one embedding
    dimension, in both directions — maps an important embedding feature
    back to readable keywords."""
    d = table.input_vectors.shape[1]
    if not 0 <= dimension < d:
        raise ExplainError("dimension %d out of range for %d-dim embeddings"
                           % (dimension, d))
    loadings = table.input_vectors[:, dimension]
    order = np.argsort(-loadings, kind="stable")
    pos = [(table.terms[i], float(loadings[i])) for i in order[:k]]
    neg = [(table.terms[i], float(loadings[i])) for i in order[::-1][:k]]
    return {"positive": pos, "negative": neg}
