"""CART decision trees (squared error or gini) and the split search that
also grows the trees of gradient boosting (gbt.py).

The search is presorted: a fit sorts each column once, stably. A node keeps
its rows in ascending order and, per column, in that column's sorted order,
which a split filters down to each child; so a node's order is exactly a
stable sort of its own rows and no node sorts again. A node scores every
boundary of a block of columns in one (columns x rows) array. Candidates
are midpoints between consecutive distinct values with at least min_leaf
rows on each side and a gain above 1e-12; ties go to the lower feature,
then the lower threshold. Rows with value <= threshold go left."""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite

_BLOCK = 1 << 15  # elements per block: bounds the temporaries of big nodes


def presort(X) -> np.ndarray:
    """The root order of the search: (features x rows), each row stable."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def best_split(X, rows, idx, score, min_leaf):
    """Return (feature, threshold) of the best split of one node, or None.

    rows is the node's (features x n) per-column sort order and idx its rows
    in ascending order. score(block, idx) maps a (columns x n) block of rows
    to the (columns x n-1) gain of sending the first 1 .. n-1 rows left."""
    p, n = rows.shape
    if p == 0 or n < 2:
        return None
    pos = np.arange(1, n)
    sizes_ok = (pos >= min_leaf) & ((n - pos) >= min_leaf)
    top = np.empty(p)
    at = np.empty(p, dtype=np.int64)
    width = max(1, _BLOCK // n)
    for lo in range(0, p, width):
        block = rows[lo:lo + width]
        b = len(block)
        xs = X[block, np.arange(lo, lo + b)[:, None]]
        gain = np.where((xs[:, :-1] < xs[:, 1:]) & sizes_ok,
                        score(block, idx), -np.inf)
        k = np.argmax(gain, axis=1)
        at[lo:lo + b] = k
        top[lo:lo + b] = gain[np.arange(b), k]
    top[np.isnan(top)] = -np.inf  # a NaN gain rules its column out
    j = int(np.argmax(top))
    if not top[j] > 1e-12:
        return None
    k = at[j]
    return j, float((X[rows[j, k], j] + X[rows[j, k + 1], j]) / 2)


def grow_tree(X, order, score, leaf, max_depth, min_leaf, pure=None):
    """Grow one tree on X by presorted search from order = presort(X).

    leaf(idx) returns the leaf dict of a node's rows (ascending), score is
    passed to best_split, and pure(idx), when given, makes a node a leaf
    before any search."""

    def grow(idx, rows, depth):
        n = len(idx)
        if (depth >= max_depth or n < 2 * min_leaf
                or (pure is not None and pure(idx))):
            return leaf(idx)
        split = best_split(X, rows, idx, score, min_leaf)
        if split is None:
            return leaf(idx)
        j, thr = split
        left = X[:, j] <= thr
        right = ~left
        return {
            "leaf": False, "feature": j, "threshold": thr, "n": n,
            "left": grow(idx[left[idx]],
                         rows[left[rows]].reshape(len(rows), -1), depth + 1),
            "right": grow(idx[right[idx]],
                          rows[right[rows]].reshape(len(rows), -1), depth + 1),
        }

    return grow(np.arange(X.shape[0]), order, 0)


def _impurity_decrease(Y):
    """Score of CART splits: the sum over the columns of Y of s_L^2/n_L +
    s_R^2/n_R - S^2/n, with s and S sums of Y. Y is the targets as one
    column (squared error) or one-hot classes (gini)."""

    def score(block, idx):
        ys = Y[block]  # (columns, rows, columns of Y)
        n = ys.shape[1]
        pos = np.arange(1, n)
        cum = np.cumsum(ys, axis=1)[:, :-1]
        total = np.sum(ys, axis=1)
        # S^2 squares Python floats (libm pow), whose last bit can differ
        # from NumPy's x*x; the trees depend on it
        const = np.array([sum(t ** 2 for t in row) for row in total.tolist()])
        return (np.sum(cum ** 2, axis=2) / pos
                + np.sum((total[:, None] - cum) ** 2, axis=2) / (n - pos)
                - const[:, None] / n)

    return score


def _leaf(y, n_classes):
    if n_classes is None:
        return {"leaf": True, "value": float(np.mean(y)), "n": len(y)}
    counts = np.bincount(y.astype(np.int64), minlength=n_classes)
    probs = counts / counts.sum()
    return {"leaf": True, "value": int(np.argmax(counts)),
            "probs": probs.tolist(), "n": len(y)}


class FlatTree:
    """A dict tree laid out as arrays, so that many rows descend it together
    one level per step: nodes breadth first, each leaf its own child. The
    leaf arrays give inner nodes the values of some leaf; no row ends there."""

    def __init__(self, root):
        nodes, depth, links = [root], [0], []
        for i, node in enumerate(nodes):  # the list grows as it goes
            if node["leaf"]:
                links.append((0, 0.0, i, i))
                continue
            k = len(nodes)
            links.append((node["feature"], node["threshold"], k, k + 1))
            nodes += [node["left"], node["right"]]
            depth += [depth[i] + 1] * 2
        self.feature, self.threshold, self.left, self.right = map(
            np.array, zip(*links))
        self.depth = max(depth)
        pad = next(n for n in nodes if n["leaf"])
        leaves = [n if n["leaf"] else pad for n in nodes]
        self.leaf = {key: np.array([n[key] for n in leaves])
                     for key in ("value", "probs") if key in pad}

    def values(self, X, key: str = "value") -> np.ndarray:
        """node[key] of the leaf each row of X falls in."""
        at = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        for _ in range(self.depth):
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            at = np.where(go_left, self.left[at], self.right[at])
        return self.leaf[key][at]


@register
class CARTModel(Model):
    family = "cart"

    def __init__(self, root, n_classes=None, **kw):
        task = "regression" if n_classes is None else "classification"
        super().__init__(task, **kw)
        self.root = root
        self.flat = FlatTree(root)
        self.n_classes = n_classes

    def predict(self, X):
        out = self.flat.values(self._check_input(X))
        return out.astype(np.int64 if self.task == "classification" else np.float64)

    def predict_scores(self, X):
        """Leaf class proportions per row (classification only)."""
        if self.task != "classification":
            raise ModelError("scores are only defined for classification trees")
        return self.flat.values(self._check_input(X), "probs")

    def params_dict(self):
        return {"root": self.root, "n_classes": self.n_classes}


def fit_cart(X, y, max_depth: int = 10, min_leaf: int = 1,
             task: str = "regression", n_classes: int | None = None) -> CARTModel:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    if task == "classification":
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        Y = np.eye(n_classes)[y]
    else:
        y = np.asarray(y, dtype=np.float64)
        n_classes = None
        Y = y[:, None]
    if len(y) < min_leaf:
        raise ModelError("fewer rows than min_leaf")
    root = grow_tree(X, presort(X), _impurity_decrease(Y),
                     lambda idx: _leaf(y[idx], n_classes),
                     max_depth, min_leaf,
                     pure=lambda idx: len(np.unique(y[idx])) == 1)
    return CARTModel(root, n_classes,
                     hyperparams={"max_depth": max_depth, "min_leaf": min_leaf})
