"""Random forest after Breiman (Machine Learning 45, 2001): each tree grows
on its own bootstrap sample, and each node searches k_features columns
drawn afresh for it. Tree t draws from the RNG of (seed, t): first its
sample, then, level by level in the grower's order, the columns of each
node it searches. A fit grows all trees in one batch over one binned X."""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite
from .tree import Binned, CARTModel, cart_criterion, cart_targets, grow


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tree_index]))


def _default_row_sampler(rng, n, m):
    return rng.integers(0, n, size=m)


@register
class ForestModel(Model):
    family = "forest"

    def __init__(self, trees, n_classes=None, **kw):
        task = "regression" if n_classes is None else "classification"
        super().__init__(task, **kw)
        self.trees = trees  # CARTModel over all columns
        self.n_classes = n_classes

    def _vote_counts(self, X):
        votes = np.array([tree.flat.values(X) for tree in self.trees])
        return np.eye(self.n_classes)[votes].sum(axis=0)

    def predict(self, X):
        X = self._check_input(X)
        if self.task == "regression":
            # tree by tree, so that a row's sum does not depend on the batch
            total = np.zeros(len(X))
            for tree in self.trees:
                total += tree.flat.values(X)
            return total / len(self.trees)
        # argmax takes the lower class on ties
        return np.argmax(self._vote_counts(X), axis=1).astype(np.int64)

    def predict_scores(self, X):
        """Vote fractions per class (classification only)."""
        if self.task != "classification":
            raise ModelError("scores are only defined for classification forests")
        X = self._check_input(X)
        return self._vote_counts(X) / len(self.trees)

    def params_dict(self):
        return {"trees": [t.params_dict() for t in self.trees],
                "n_classes": self.n_classes}

    @classmethod
    def from_params(cls, task, hyperparams, manifest, seed, params):
        trees = [CARTModel(p["root"], p["n_classes"]) for p in params["trees"]]
        return cls(trees, params["n_classes"], hyperparams=hyperparams,
                   manifest=manifest, seed=seed)


def fit_forest(X, y, n_trees: int = 100, k_features: int | None = None,
               max_depth: int = 12, min_leaf: int = 1,
               task: str = "regression", seed: int = 0,
               row_sampler=_default_row_sampler) -> ForestModel:
    if n_trees < 1:
        raise ModelError("n_trees must be >= 1")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    n, p = X.shape
    k = p if k_features is None else k_features
    if k > p:
        raise ModelError("k_features exceeds the number of columns")
    y, n_classes = cart_targets(y, task)

    rngs = [_tree_rng(seed, t) for t in range(n_trees)]
    samples = [np.asarray(row_sampler(rng, n, n)) for rng in rngs]
    if min(len(rows) for rows in samples) < min_leaf:
        raise ModelError("fewer rows than min_leaf")

    def draw(trees):
        # each node takes p uniforms from its tree's RNG, in level order,
        # where a tree's nodes follow each other, and searches the columns
        # of the k smallest
        keys = np.empty((len(trees), p))
        for t, a, c in zip(*np.unique(trees, return_index=True,
                                      return_counts=True)):
            keys[a:a + c] = rngs[t].random((c, p))
        return np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)

    src = np.concatenate(samples)
    roots = grow(Binned(X), src, [len(rows) for rows in samples],
                 cart_criterion(y[src], n_classes), max_depth, min_leaf,
                 draw)
    trees = [CARTModel(root, n_classes,
                       hyperparams={"max_depth": max_depth,
                                    "min_leaf": min_leaf})
             for root in roots]
    # saved models record the bootstrap size, which is the row count
    return ForestModel(trees, n_classes,
                       hyperparams={"n_trees": n_trees, "m_samples": n,
                                    "k_features": k, "max_depth": max_depth,
                                    "min_leaf": min_leaf},
                       seed=seed)
