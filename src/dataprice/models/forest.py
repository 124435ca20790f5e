"""Random forest: per-tree bootstrap sample and per-tree random feature
subset, with per-tree RNGs derived from (seed, tree index). A fit draws
every tree's sample and subset first, then grows all trees in one batch."""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite
from .tree import (CARTModel, Stack, cart_criterion, cart_targets, grow,
                   presort)


_STACK_ROWS = 1 << 12  # rows of the trees grown together: bounds memory


def _tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tree_index]))


def _default_row_sampler(rng, n, m):
    return rng.integers(0, n, size=m)


@register
class ForestModel(Model):
    family = "forest"

    def __init__(self, trees, feature_subsets, n_classes=None, **kw):
        task = "regression" if n_classes is None else "classification"
        super().__init__(task, **kw)
        self.trees = trees  # CARTModel fitted on the subset columns
        self.feature_subsets = [list(map(int, fs)) for fs in feature_subsets]
        self.n_classes = n_classes

    def _tree_votes(self, X):
        return [tree.predict(X[:, fs])
                for tree, fs in zip(self.trees, self.feature_subsets)]

    def _vote_counts(self, X):
        votes = np.array(self._tree_votes(X)).astype(np.int64)
        return np.eye(self.n_classes)[votes].sum(axis=0)

    def predict(self, X):
        X = self._check_input(X)
        if self.task == "regression":
            # tree by tree, so that a row's sum does not depend on the batch
            total = np.zeros(len(X))
            for vote in self._tree_votes(X):
                total += vote
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
                "feature_subsets": self.feature_subsets,
                "n_classes": self.n_classes}

    @classmethod
    def from_params(cls, task, hyperparams, manifest, seed, params):
        trees = [CARTModel(p["root"], p["n_classes"]) for p in params["trees"]]
        return cls(trees, params["feature_subsets"], params["n_classes"],
                   hyperparams=hyperparams, manifest=manifest, seed=seed)


def _grow_batch(batch, n_classes, max_depth, min_leaf):
    """The roots of CART trees grown together, one per (X, y) of batch."""
    sizes = [len(y) for _, y in batch]
    offsets = np.cumsum(sizes) - sizes
    order = np.hstack([presort(Xt) + off
                       for (Xt, _), off in zip(batch, offsets)])
    return grow(Stack(np.vstack([Xt for Xt, _ in batch]), order, sizes),
                cart_criterion(np.concatenate([y for _, y in batch]),
                               n_classes),
                max_depth, min_leaf)


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

    draws = []
    for t in range(n_trees):
        rng = _tree_rng(seed, t)
        rows = row_sampler(rng, n, n)
        draws.append((rows, np.sort(rng.choice(p, size=k, replace=False))))
    if min(len(rows) for rows, _ in draws) < min_leaf:
        raise ModelError("fewer rows than min_leaf")
    roots, batch = [], []
    for t, (rows, feats) in enumerate(draws):
        batch.append((X[np.ix_(rows, feats)], y[rows]))
        if (t + 1 == n_trees or sum(len(b) for b, _ in batch)
                + len(draws[t + 1][0]) > _STACK_ROWS):
            roots += _grow_batch(batch, n_classes, max_depth, min_leaf)
            batch = []
    trees = [CARTModel(root, n_classes,
                       hyperparams={"max_depth": max_depth,
                                    "min_leaf": min_leaf})
             for root in roots]
    subsets = [feats for _, feats in draws]
    # saved models record the bootstrap size, which is the row count
    return ForestModel(trees, subsets, n_classes,
                       hyperparams={"n_trees": n_trees, "m_samples": n,
                                    "k_features": k, "max_depth": max_depth,
                                    "min_leaf": min_leaf},
                       seed=seed)
