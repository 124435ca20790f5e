"""Gradient-boosted trees with second-order split gain and leaf weights.

Each round fits a regression tree to the first/second derivatives of the
loss at the current prediction: leaf weight w* = -G / (H + lambda), split
gain 1/2 [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)] - gamma
(Chen & Guestrin 2016). Squared error uses g = yhat - y, h = 1; binary
classification uses the logistic loss with g = p - y, h = p(1-p).

Trees grow by the presorted search of tree.py, which sorts the columns once
per fit for all rounds and breaks ties as CART does. Each round updates the
training predictions with the leaf values written while growing.
"""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite
from .tree import FlatTree, grow_tree, presort


def _leaf_weight(G, H, lam):
    return -G / (H + lam)


def _grow(X, order, g, h, max_depth, min_leaf, lam, gamma_pen):
    """One round's tree, plus the leaf value of every training row."""
    step = np.empty(len(g))

    def sums(idx):
        G, H = float(np.sum(g[idx])), float(np.sum(h[idx]))
        if H + lam == 0:  # logistic probabilities saturated at 0 or 1, lam 0
            raise ModelError("a node's hessian sum plus lam is 0; use lam > 0")
        return G, H

    def leaf(idx):
        value = _leaf_weight(*sums(idx), lam)
        step[idx] = value
        return {"leaf": True, "value": value, "n": len(idx)}

    def gain(block, idx):
        G, H = sums(idx)
        gl = np.cumsum(g[block], axis=1)[:, :-1]
        hl = np.cumsum(h[block], axis=1)[:, :-1]
        # G ** 2 squares a Python float (libm pow); the trees depend on it
        return 0.5 * (gl ** 2 / (hl + lam) + (G - gl) ** 2 / (H - hl + lam)
                      - G ** 2 / (H + lam)) - gamma_pen

    return grow_tree(X, order, gain, leaf, max_depth, min_leaf), step


@register
class GBTModel(Model):
    family = "gbt"

    def __init__(self, trees, base_score, learning_rate, loss, **kw):
        task = "regression" if loss == "squared" else "classification"
        super().__init__(task, **kw)
        self.trees = trees  # list of tree roots
        self.flat = [FlatTree(root) for root in trees]
        self.base_score = float(base_score)
        self.learning_rate = float(learning_rate)
        self.loss = loss

    def predict_raw(self, X):
        X = self._check_input(X)
        out = np.full(X.shape[0], self.base_score)
        for tree in self.flat:
            out += self.learning_rate * tree.values(X)
        return out

    def predict_proba(self, X):
        if self.loss != "logistic":
            raise ModelError("probabilities need the logistic loss")
        return 1.0 / (1.0 + np.exp(-self.predict_raw(X)))

    def scores(self, X):
        return self.predict_proba(X)

    def predict(self, X):
        raw = self.predict_raw(X)
        if self.loss == "squared":
            return raw
        return (raw >= 0).astype(np.int64)

    def params_dict(self):
        return {"trees": self.trees, "base_score": self.base_score,
                "learning_rate": self.learning_rate, "loss": self.loss}


def fit_gbt(X, y, n_rounds: int = 50, learning_rate: float = 0.3,
            lam: float = 1.0, gamma_pen: float = 0.0, max_depth: int = 3,
            min_leaf: int = 1, loss: str = "squared") -> GBTModel:
    """Boost n_rounds trees. Base score is the target mean for squared loss
    and the empirical log-odds for the logistic loss (y in {0,1})."""
    if n_rounds < 1:
        raise ModelError("n_rounds must be >= 1")
    if lam < 0:
        raise ModelError("lam must be >= 0")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    y = np.asarray(y, dtype=np.float64)
    if loss == "squared":
        base = float(np.mean(y))
    elif loss == "logistic":
        p = float(np.clip(np.mean(y), 1e-6, 1.0 - 1e-6))
        base = float(np.log(p / (1.0 - p)))
    else:
        raise ModelError("unknown loss %r" % loss)

    raw = np.full(len(y), base)
    trees = []
    order = presort(X)
    for _ in range(n_rounds):
        if loss == "squared":
            g = raw - y
            h = np.ones_like(y)
        else:
            prob = 1.0 / (1.0 + np.exp(-raw))
            g = prob - y
            h = prob * (1.0 - prob)
        root, step = _grow(X, order, g, h, max_depth, min_leaf, lam, gamma_pen)
        trees.append(root)
        raw += learning_rate * step
    return GBTModel(trees, base, learning_rate, loss,
                    hyperparams={"n_rounds": n_rounds,
                                 "learning_rate": learning_rate, "lam": lam,
                                 "gamma_pen": gamma_pen, "max_depth": max_depth,
                                 "min_leaf": min_leaf})
