"""Per-prediction attributions.

CART, forest and GBT models, and one-vs-rest ensembles of them, get exact
path-dependent attributions computed from the node cover counts recorded at
fit time, all by one method that reads each model as a weighted sum of
trees. The method splits the trees into their root-to-leaf paths once per
model, on its first explain, and keeps them on the model; a row then runs
TreeSHAP's sums over all paths of the model in array operations, one pass
per group of paths of equal length. A linear regression model, behind an
optional standardizer, gets its exact interventional values against a
background dataset in closed form. Every other model, a standardized tree
model included (its trees split on scaled columns), gets a sampling
kernel-weighted least-squares approximation against the background.
That method draws its coalitions in array operations, as complement pairs,
and solves the weighted least squares by a Cholesky factor of its normal
equations, or by an SVD where the factor fails or is near singular.
Kernel machines, logistic and MLP models (an SVR, an MLPModel, and the
SVM or logistic member of a one-vs-rest ensemble, each behind an
optional standardizer) share one coalition routine: it
scores the coalitions from each background row's first layer (its kernel
terms' exponents, or its first affine layer), updated by the columns where
the row differs from the explained one, instead of predicting the imputed
rows. One product gives the first layers of the first coalition of every
pair, offset included. Between them, a coalition and its complement
take each column once from the explained row x and once from the
background row g, so their first layers sum to C_g = H(g) + H(x): an
rbf machine's complement has the kernel terms exp(C_g) / exp(H), one
reciprocal of its partner's, and any other model's complement follows
by one subtraction, as does an rbf complement where an exponent of C_g
is below -700 and exp(C_g) would leave the normal doubles. The product
and the model's head run over blocks of coalitions sized to stay in
cache. Every method satisfies local accuracy: the attributions plus the
expected value sum to the model output for the explained row.
The tree and kernel methods explain a classifier's predicted class unless
a class is named, and the
kernel method draws one coalition design per call, so a row's
attributions depend only on the row, the model, the background and the
seed. Explained and background rows must be finite.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .models import (CARTModel, ForestModel, GBTModel, LinearModel,
                     LogisticModel, MLPModel, OvREnsemble, StandardizedModel,
                     SVMModel, SVRModel)
from .models.linear import sigmoid
from .models.svm import sq_distances
from .textrep.word2vec import EmbeddingTable


class ExplainError(ValueError):
    pass


# ----------------------------------------------------- tree attributions ----

def _default_leaf_value(node):
    return float(node["value"])


class TreePaths:
    """The root-to-leaf paths of a list of trees, grouped by their number
    of distinct split features L, ascending. Within a group the paths run
    tree by tree, each tree's leaves depth first, left before right.

    A path holds each feature it splits on once, at its first split: the
    feature's zero fraction is the product of the cover fractions of its
    splits, and its splits bound an interval (lo, hi] that a row must fall
    in to follow them all. A group is (tree, feature, zero, lo, hi, value).
    tree and value have one row per path; the element arrays feature,
    zero, lo and hi (L x paths) have one row per element and one column per
    path. value (paths x C) and expected (trees x C) hold leaf_value(leaf),
    an array of C values, and its cover-weighted mean."""

    def __init__(self, roots, leaf_value):
        self.expected = np.array([tree_expected(root, leaf_value)
                                  for root in roots])
        groups = {}
        for t, root in enumerate(roots):
            stack = [(root, {})]  # path: feature -> (zero, lo, hi)
            while stack:
                node, path = stack.pop()
                if node["leaf"]:
                    if path:  # a lone leaf attributes nothing
                        groups.setdefault(len(path), []).append(
                            (t, np.array([list(path), *zip(*path.values())]),
                             leaf_value(node)))
                    continue
                j, thr = node["feature"], node["threshold"]
                z, lo, hi = path.get(j, (1.0, -np.inf, np.inf))
                for child, bounds in ((node["right"], (max(lo, thr), hi)),
                                      (node["left"], (lo, min(hi, thr)))):
                    stack.append((child, {**path, j: (
                        z * child["n"] / node["n"], *bounds)}))
        self.groups = []
        for L in sorted(groups):
            tree, elements, value = zip(*groups[L])
            feature, zero, lo, hi = np.stack(elements, axis=2)
            self.groups.append((np.array(tree), feature.astype(np.int64),
                                zero, lo, hi, np.array(value)))


def _path_terms(zero, one, value):
    """Each path element's share of its path's leaf value, by Lundberg et
    al.'s TreeSHAP (arXiv:1905.04610) over the elements of paths of one
    length L (GPUTreeShap's decomposition, arXiv:2010.13972): EXTEND
    builds each path's subset weights element by element, vectorized over
    paths, then UNWOUND sums them without each element, vectorized over
    (elements x paths). one is the row's one fraction, 0 or 1. An element
    with one 0 unwinds to sum_j w_j (L + 1) / (zero (L - j)), so its
    path's cold elements share one sum."""
    L, P = zero.shape
    w = np.zeros((L + 1, P))
    w[0] = 1.0
    for l in range(1, L + 1):
        head = w[:l]
        up = one[l - 1] * head
        up *= (np.arange(1, l + 1) / (l + 1))[:, None]
        head *= zero[l - 1]
        head *= (np.arange(l, 0, -1) / (l + 1))[:, None]
        w[1:l] += up[:-1]
        w[l] = up[-1]
    hot = np.zeros((L, P))
    cold = np.zeros(P)
    n = np.broadcast_to(w[L], (L, P))
    for j in range(L - 1, -1, -1):
        t = n * ((L + 1) / (j + 1))
        hot += t
        t *= zero
        t *= (L - j) / (L + 1)
        n = w[j] - t
        cold += w[j] * ((L + 1) / (L - j))
    return np.where(one > 0, hot, cold / zero) * (one - zero) * value


def _path_phi(paths, x, width, c=0):
    """(trees x width) attributions of each tree of paths for the row x
    and the leaf values' column c."""
    out = np.zeros((len(paths.expected), width))
    for tree, feature, zero, lo, hi, value in paths.groups:
        v = x[feature]
        one = ((lo < v) & (v <= hi)).astype(np.float64)
        np.add.at(out, (tree, feature), _path_terms(zero, one, value[:, c]))
    return out


def tree_shap(root, x, n_features: int, leaf_value=_default_leaf_value) -> np.ndarray:
    """Exact per-feature attributions for one tree and one row, following
    split cover fractions down unvisited branches. Returns phi with
    sum(phi) == tree(x) - tree_expected(root)."""
    paths = TreePaths([root], lambda node: np.array([leaf_value(node)]))
    return _path_phi(paths, np.asarray(x, dtype=np.float64), n_features)[0]


def tree_expected(root, leaf_value=_default_leaf_value) -> float:
    """Cover-weighted mean leaf value: the model output for a row about
    which nothing is known. leaf_value may return an array, one value per
    class, and so does the mean."""
    if root["leaf"]:
        return leaf_value(root)
    wl = root["left"]["n"] / root["n"]
    return (wl * tree_expected(root["left"], leaf_value)
            + (1 - wl) * tree_expected(root["right"], leaf_value))


def _tree_sum(model):
    """A tree model's output as (offset + weight * sum of trees) / divisor:
    returns (paths, weight, offset, divisor). The paths are built on the
    model's first explain and kept on it as shap_paths.

    Leaf values are per class: CART explains the leaf probability of the
    class, a forest its vote fraction (a tree votes its hard prediction),
    and GBT the raw boosted score (log-odds under the logistic loss)
    whatever the class; a regression leaf holds its one value."""
    if isinstance(model, GBTModel):
        roots = model.trees
        weight, offset, divisor = model.learning_rate, model.base_score, 1
    elif isinstance(model, ForestModel):
        roots = [t.root for t in model.trees]
        weight, offset, divisor = 1.0, 0.0, len(model.trees)
    else:
        roots = [model.root]
        weight, offset, divisor = 1.0, 0.0, 1
    paths = vars(model).get("shap_paths")
    if paths is None:
        votes = (None if model.task == "regression"
                 or isinstance(model, GBTModel) else np.eye(model.n_classes))
        if votes is None:
            leaf = lambda node: np.array([float(node["value"])])
        elif isinstance(model, ForestModel):
            leaf = lambda node: votes[int(node["value"])]
        else:
            leaf = lambda node: (np.array(node["probs"]) if "probs" in node
                                 else votes[int(node["value"])])
        paths = model.shap_paths = TreePaths(roots, leaf)
    return paths, weight, offset, divisor


def _is_tree(model) -> bool:
    return isinstance(model, (CARTModel, ForestModel, GBTModel))


# --------------------------------------------------------- kernel method ----

def shapley_kernel_weight(n_features: int, subset_size: int) -> float:
    s, M = subset_size, n_features
    if s == 0 or s == M:
        return float("inf")
    return (M - 1) / (comb(M, s) * s * (M - s))


def _mean(v, axis=None):
    """The mean of v refined once by the mean of its residuals, so that
    equal values average to exactly themselves."""
    m = np.mean(v, axis=axis)
    return m + np.mean(v - m, axis=axis)


def kernel_shap(predict_fn, x, background, n_samples: int = 2048,
                seed: int = 0, *, coalition_values=None):
    """Sampling approximation of per-feature attributions for an arbitrary
    scalar-output model.

    The coalition design is a list of complement pairs: a 0/1 row of
    present columns, then the row of the columns it leaves out. When every
    coalition fits in n_samples they are all listed, code c before its
    complement 2^M - 1 - c for 0 < c < 2^(M - 1); otherwise n_samples rows
    are drawn, and an odd n_samples drops the last pair's complement.
    Coalitions are scored by evaluating the model with absent features
    replaced by each background row in turn and averaging, or by
    coalition_values(x, background, Z) when given: Z holds the first row
    of every pair, and it must return those averages for the rows of Z and
    for their complements, as two arrays. Attributions solve the
    kernel-weighted least squares with the local-accuracy constraint
    enforced exactly, by _least_squares: a Cholesky factor of its normal
    equations, or np.linalg.lstsq where the factor fails or is near
    singular. A column where x equals every background row (a null player)
    gets exactly 0, and the solve runs on the other columns; the design is
    still drawn over all M. A design whose rank falls below its unknowns
    (the active columns but one) leaves the least squares underdetermined
    and draws a RuntimeWarning that gives its rows, its rank and the
    unknowns. A complement row adds no rank to its partner's, so a design
    of fewer pairs than unknowns always warns. Returns (phi,
    expected_value)."""
    x = np.asarray(x, dtype=np.float64).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=np.float64))
    M = len(x)
    if background.shape[1] != M:
        raise ExplainError("background column count mismatch")
    if len(background) == 0:
        raise ExplainError("the background dataset has no rows")
    f0 = float(_mean(predict_fn(background)))
    fx = float(np.asarray(predict_fn(x.reshape(1, -1)))[0])
    # a column where x equals every background row is a null player: no
    # coalition value depends on it, so its attribution is exactly 0 and
    # the solve runs on the other columns
    active = np.flatnonzero((background != x).any(axis=0))
    phi = np.zeros(M)
    if len(active) <= 1:
        phi[active] = fx - f0
        return phi, f0

    rng = np.random.default_rng(seed)
    total = 2 ** M - 2 if M <= 30 else n_samples + 1
    if total <= n_samples:
        # the bits of each code, lowest bit in column 0; a coalition and
        # its complement share their kernel weight
        half = ((np.arange(1, 2 ** (M - 1))[:, None] >> np.arange(M)) & 1
                ).astype(np.float64)
        size_w = np.array([shapley_kernel_weight(M, s) for s in range(M + 1)])
        w = np.repeat(size_w[half.sum(axis=1).astype(np.int64)], 2)
    else:
        if n_samples < 2:
            raise ExplainError("n_samples must be >= 2 to sample coalitions, "
                               "got %d" % n_samples)
        sizes = np.arange(1, M)
        size_p = np.array([(M - 1) / (s * (M - s)) for s in sizes])
        size_p /= size_p.sum()
        # a pair's first row is a subset of a drawn size, the first s
        # columns of a random order
        s = rng.choice(sizes, size=(n_samples + 1) // 2, p=size_p)
        order = np.argsort(rng.random((len(s), M)), axis=1)
        half = np.zeros((len(s), M))
        np.put_along_axis(half, order, np.arange(M) < s[:, None], axis=1)
        w = np.ones(n_samples)
    Z = np.stack([half, 1.0 - half], axis=1).reshape(-1, M)[:len(w)]

    # model value of each coalition: present features from x, absent ones
    # imputed from every background row, averaged
    if coalition_values is not None:
        fz = np.stack(coalition_values(x, background, half),
                      axis=1).ravel()[:len(Z)]
    else:
        fz = np.empty(len(Z))
        for i, z in enumerate(Z):
            rows = np.where(z[None, :] > 0, x[None, :], background)
            fz[i] = float(_mean(predict_fn(rows)))

    # eliminate the last active attribution with the constraint
    # sum(phi) = fx - f0
    last, rest = active[-1], active[:-1]
    y = fz - f0 - Z[:, last] * (fx - f0)
    A = Z[:, rest] - Z[:, [last]]
    sw = np.sqrt(w)
    sol, rank = _least_squares(A * sw[:, None], y * sw)
    if rank < len(rest):
        warnings.warn("kernel SHAP: the design has %d rows of rank %d for %d "
                      "unknowns (the active columns but one, which local "
                      "accuracy fixes); its least squares is underdetermined"
                      % (len(Z), rank, len(rest)), RuntimeWarning, stacklevel=2)
    phi[rest] = sol
    phi[last] = (fx - f0) - sol.sum()
    return phi, f0


# the normal equations are solved only when the smallest squared pivot of
# their Cholesky factor is at least this share of the largest
_PIVOT_RATIO = 1e-10


def _least_squares(A, y):
    """(solution, rank) of the least squares A sol ~ y. The normal
    equations A'A sol = A'y are solved by one Cholesky factor of A'A, and
    the factor solves once more for the residual's correction, which takes
    the error from about cond(A)^2 to about cond(A) rounding units (the
    corrected semi-normal equations). A design whose factorization fails,
    or whose smallest pivot is negligible against its largest, goes to the
    SVD of np.linalg.lstsq, which returns the minimum-norm solution and the
    numerical rank. The factor accepts only designs of full column rank.
    The pivot check is needed: a drawn design repeats its singleton
    coalitions, and an eliminated complement row is its partner's
    negative, so it can lack rank with more pairs than unknowns."""
    try:
        L = np.linalg.cholesky(A.T @ A)
    except np.linalg.LinAlgError:
        L = None
    if L is not None:
        pivots = np.diagonal(L) ** 2
        if pivots.min() >= _PIVOT_RATIO * pivots.max():
            solve = lambda r: np.linalg.solve(L.T, np.linalg.solve(L, A.T @ r))
            sol = solve(y)
            return sol + solve(y - A @ sol), A.shape[1]
    sol, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    return sol, int(rank)


def _first_layer(model, class_index):
    """(standardizer or None, W, b, rbf, head) when the explained output is
    head(H) of a first layer H that, on a row r, is r @ W + b, or for an
    rbf kernel machine (rbf = (sq, gamma, coef, intercept)) -gamma times
    the squared distances from r to W's columns, whose squared norms sq
    holds, with the output exp(H) @ coef + intercept. That covers an SVR,
    an MLPModel, and a one-vs-rest ensemble's SVM or logistic member for
    the class. head may overwrite H. None for every other model."""
    if isinstance(model, OvREnsemble):
        model = model.members[class_index]
    std = None
    if isinstance(model, StandardizedModel):
        std, model = model.standardizer, model.inner
    if isinstance(model, (SVMModel, SVRModel)):
        rbf = model.kernel == "rbf"

        def head(H):
            if rbf:  # the kernel terms exp(-gamma max(D, 0))
                np.minimum(H, 0.0, out=H)
                np.exp(H, out=H)
            return H @ model.coef + model.b
        return (std, np.ascontiguousarray(model.support_vectors.T), 0.0,
                (model.sv_sq, model.gamma, model.coef, model.b) if rbf
                else None, head)
    if isinstance(model, LogisticModel):
        return std, model.w[:, None], model.b, None, lambda H: sigmoid(H[:, 0])
    if isinstance(model, MLPModel):
        scores = model.scores_from_first_layer
        return (std, model.weights[0], model.biases[0], None,
                scores if class_index is None
                else lambda H: scores(H)[:, class_index])
    return None


# bytes of the first layers of a block of coalitions and their complements,
# so that a block's product and head run within a core's L2 cache. Pairs
# scored by reciprocal hold only their first rows' layers, which they
# exponentiate and invert in place, so their blocks take twice the pairs
_BLOCK_BYTES = 2 ** 20
# an rbf background row's pairs are scored by reciprocal only when every
# exponent of its complement constant C_g is at least this: both of a
# pair's exponents lie in [C_g, 0], so exp of either and 1/exp of either
# stay normal doubles (the smallest is about exp(-708.4))
_EXP_SAFE = -700.0


def _pairs_by_subtraction(ZJ, update, complement, head, H, rows, value):
    """A background row's coalition values, by blocks of rows pairs: each
    complement's first layer is complement - H(z), and the head takes the
    block's first layers and theirs at once."""
    n = len(ZJ)
    for start in range(0, n, rows):
        k = min(rows, n - start)
        np.matmul(ZJ[start:start + k], update, out=H[:k])
        np.subtract(complement, H[:k], out=H[k:2 * k])
        value[:, start:start + k] = head(H[:2 * k]).reshape(2, k)


def _pairs_by_reciprocal(ZJ, update, coef, scaled, intercept, H, rows,
                         value):
    """An rbf background row's coalition values, by blocks of rows pairs:
    a complement's kernel terms are exp(C_g) / exp(H(z)), so one
    exponential of the block gives the first rows' values, E @ coef, and
    its reciprocal the complements', with scaled = coef exp(C_g)."""
    n = len(ZJ)
    for start in range(0, n, rows):
        k = min(rows, n - start)
        E = H[:k]
        np.matmul(ZJ[start:start + k], update, out=E)
        np.exp(E, out=E)
        value[0, start:start + k] = E @ coef
        np.reciprocal(E, out=E)
        value[1, start:start + k] = E @ scaled
    value += intercept


def _first_layer_values(std, W, b, rbf, head, x, background, Z):
    """kernel_shap's coalition values, of the rows of Z and of their
    complements, for a model that _first_layer takes, computed without the
    imputed rows. Such a row differs from its background row g only in the
    columns J where x and g differ, so its first layer is [Z_J | 1] @ [U;
    H(g)], where H(g) is g's first layer and U = ((x - g) W)_J, or for an
    rbf machine U = -gamma ((x - g)(x + g - 2w))_J on each column w of W.
    A coalition z and its complement take each column once from x and once
    from g, so their first layers sum to C_g = H(g) + H(x): the
    complement's is C_g - H(z). For an rbf machine the complement's kernel
    terms are then exp(C_g) / exp(H(z)), and its pairs are scored by
    _pairs_by_reciprocal, one exponential and one reciprocal per block;
    a background row with an exponent of C_g below _EXP_SAFE, and every
    other model, is scored by _pairs_by_subtraction, which clamps the rbf
    exponents at 0 and takes the head of both rows. One background row at
    a time, the product and the head run over blocks of Z's rows of at
    most _BLOCK_BYTES; the values are the _mean of the background rows'
    head outputs."""
    if std is not None:  # elementwise, so it commutes with the imputation
        x, background = std.transform(x), std.transform(background)
    n, M = Z.shape
    width = W.shape[1]
    if rbf is None:
        scale, base = 1.0, background @ W + b
    else:
        scale, base = -rbf[1], sq_distances(background, W.T, rbf[0])
        base *= scale
        H_x = scale * sq_distances(x[None, :], W.T, rbf[0])[0]
    W1 = np.vstack([W, np.zeros(width)])  # row M holds H(g)
    Z1 = np.hstack([Z, np.ones((n, 1))])
    rows = max(1, _BLOCK_BYTES // (16 * max(width, 1)))
    H = np.empty((2 * min(rows, n), width))
    values = np.empty((len(background), 2, n))
    for g, base_g, value in zip(background, base, values):
        J = np.flatnonzero(x != g)
        cols = np.append(J, M)
        update = W1[cols]
        U = update[:-1]
        if rbf is not None:
            U *= -2.0
            U += (x + g)[J, None]
        U *= (scale * (x - g)[J])[:, None]
        update[-1] = base_g
        ZJ = Z1[:, cols]
        if rbf is not None:
            C_g = base_g + H_x
            if not (C_g < _EXP_SAFE).any():
                _pairs_by_reciprocal(ZJ, update, rbf[2], rbf[2] * np.exp(C_g),
                                     rbf[3], H, 2 * rows, value)
                continue
        _pairs_by_subtraction(ZJ, update, update.sum(axis=0) + base_g, head,
                              H, rows, value)
    return _mean(values, axis=0)


# ---------------------------------------------------------- dispatching ----

def shap_values(model, X, background=None, n_samples: int = 2048,
                seed: int = 0, class_index: int | None = None):
    """Attribution matrix (one row per explained row) plus the expected
    value. CART, forest and GBT models, and one-vs-rest ensembles of them,
    use the exact tree method. A LinearModel, behind an optional
    standardizer, gets its exact interventional values against the
    background, phi_j = w_j mean(x_j - g_j) over background rows g on the
    scaled columns, and the expected value _mean(predict(background)).
    Everything else, standardized models included, uses the kernel method.
    Both need a background dataset.
    The kernel method scores every row against the coalitions drawn from
    seed, the models that _first_layer takes by _first_layer_values and
    any other model's by predicting the imputed rows, so a row's
    attributions do not depend on the other rows of X.

    For classifiers, class_index picks the score column to explain; it
    defaults to each row's predicted class, and one outside the model's
    classes raises ExplainError. A regression model's output and a GBT's
    raw score name no class, so there class_index is ignored. A bare binary
    SVM or logistic model has no score per class and raises ExplainError.
    A one-vs-rest ensemble's member for a class absent from training is
    constant: a row explained for that class gets phi 0 and the member's
    score as its expected value, without the kernel method."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if not np.isfinite(X).all():
        raise ExplainError("the explained rows hold a non-finite value")
    if background is not None:
        background = np.atleast_2d(np.asarray(background, dtype=np.float64))
        if not np.isfinite(background).all():
            raise ExplainError("the background rows hold a non-finite value")
    inner = model.inner if isinstance(model, StandardizedModel) else model
    if isinstance(inner, (SVMModel, LogisticModel)):
        raise ExplainError("a bare binary %s has no class scores to explain; "
                           "explain the one-vs-rest ensemble of it"
                           % type(inner).__name__)
    n, p = X.shape
    if model.task == "regression" or isinstance(model, GBTModel):
        classes = [None] * n
    elif class_index is not None:
        k = len(inner.members) if isinstance(inner, OvREnsemble) else inner.n_classes
        if not 0 <= class_index < k:
            raise ExplainError("class_index %s is out of range: the model "
                               "has classes 0 to %d" % (class_index, k - 1))
        classes = [class_index] * n
    else:
        classes = model.predict(X).tolist()
    phi = np.zeros((n, p))
    expected = np.zeros(n)
    live = range(n)

    if isinstance(model, OvREnsemble):
        # a class absent from training has a constant member: phi 0 and
        # its score as the expected value
        live = []
        for i, c in enumerate(classes):
            if model.members[c].family == "constant_score":
                expected[i] = model.members[c].SCORE
            else:
                live.append(i)
        if all(_is_tree(m) or m.family == "constant_score"
               for m in model.members):
            for i in live:
                phi[i:i + 1], expected[i:i + 1] = shap_values(
                    model.members[classes[i]], X[i:i + 1])
            return phi, expected
    if _is_tree(model):
        paths, w, offset, divisor = _tree_sum(model)
        for i, c in enumerate(classes):
            k = 0 if c is None else c
            total = offset
            for t, tree_phi in enumerate(_path_phi(paths, X[i], p, k)):
                phi[i] += w * tree_phi
                total += w * paths.expected[t, k]
            phi[i] /= divisor
            expected[i] = total / divisor
        return phi, expected

    if background is None:
        raise ExplainError("a background dataset is required for this model")
    if isinstance(inner, LinearModel):
        # w'r + b is additive, so its interventional values are exact:
        # phi_j = w_j mean_g(x_j - g_j) on the scaled row and background
        expected[:] = _mean(np.asarray(model.predict(background),
                                       dtype=np.float64))
        if inner is not model:
            X = model.standardizer.transform(X)
            background = model.standardizer.transform(background)
        for i, x in enumerate(X):
            phi[i] = inner.w * np.mean(x - background, axis=0)
        return phi, expected
    for i in live:
        c = classes[i]
        if c is None:
            fn = lambda rows: np.asarray(model.predict(rows), dtype=np.float64)
        else:
            fn = lambda rows: np.asarray(model.predict_scores(rows))[:, c]
        layer = _first_layer(model, c)
        values = (None if layer is None
                  else partial(_first_layer_values, *layer))
        phi[i], expected[i] = kernel_shap(fn, X[i], background, n_samples,
                                          seed, coalition_values=values)
    return phi, expected


# ------------------------------------------------------------- summaries ----

def _rank_order(mean_abs: np.ndarray) -> np.ndarray:
    """Column indices by mean |attribution| as printed (.8g), descending,
    ties to the lower index: columns that print alike rank alike whatever
    their last bits."""
    printed = np.array([float(format(v, ".8g")) for v in mean_abs])
    return np.argsort(-printed, kind="stable")


@dataclass
class ImportanceReport:
    columns: list[str]
    mean_abs: np.ndarray  # per-feature mean |attribution|

    def top(self, k: int = 20):
        order = _rank_order(self.mean_abs)
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
    order = _rank_order(np.mean(np.abs(phi), axis=0))
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
