"""Gradient-boosted trees with second-order split gain and leaf weights.

Each round fits a regression tree to the first/second derivatives of the
loss at the current prediction: leaf weight w* = -G / (H + lambda), split
gain 1/2 [G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)] - gamma
(Chen & Guestrin 2016). Squared error uses g = yhat - y, h = 1; binary
classification uses the logistic loss with g = p - y, h = p(1-p).

Trees grow level by level in tree.py. fit_gbts boosts several targets on
one X together, as one-vs-rest classification does: each round grows one
tree per target in one batch, every target's rows standing for the rows of
the one binned X. A target may be held to a prefix of X's columns, which
grow's draw hook gives its nodes, so one call also boosts the models of
several column counts. Each round updates the training predictions with
the leaf values written while growing.

Every round's roots hold all of X's rows and search the same columns; only
the derivatives change. So the first round's plan of the roots' search
(the bins, candidates and left counts of tree.py's _Plan) serves every
later round, which only scores it. Deeper levels are planned afresh each
round, as their rows depend on the round's splits.
"""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite
from .tree import Binned, FlatTree, grow, node_sums


def _leaf_weight(G, H, lam):
    return -G / (H + lam)


class _Booster:
    """The criterion of one round: second-order gain and leaf weights from
    the derivatives g and h of the stack rows; h None stands for h = 1,
    whose sums are exact counts. leaves() writes each row's leaf weight to
    step."""

    def __init__(self, g, h, lam, gamma_pen):
        self.g, self.h = g, h
        self.lam, self.gamma_pen = lam, gamma_pen
        self.step = np.empty(len(g))

    def level(self, asc, start, size):
        self.asc, self.size = asc, size
        if self.h is None:
            self.G = node_sums([self.g], asc, start, size)[0]
            self.H = size.astype(np.float64)
        else:
            self.G, self.H = node_sums([self.g, self.h], asc, start, size)
            if (self.H + self.lam == 0).any():
                # logistic probabilities saturated at 0 or 1, lam 0
                raise ModelError(
                    "a node's hessian sum plus lam is 0; use lam > 0")
        # G ** 2 squares a Python float (libm pow); the trees depend on it
        self.G2 = np.array([g ** 2 / (h + self.lam) for g, h
                            in zip(self.G.tolist(), self.H.tolist())])

    def pure(self):
        return None

    def hist(self, key, rows, k, bins):
        return [np.bincount(key, np.tile(v[rows], k), minlength=bins)
                for v in ((self.g,) if self.h is None else (self.g, self.h))]

    def gain(self, node, pos, cum):
        gl = cum[:, 0]
        hl = pos if self.h is None else cum[:, 1]
        G, H, lam = self.G[node], self.H[node], self.lam
        return 0.5 * (gl ** 2 / (hl + lam) + (G - gl) ** 2 / (H - hl + lam)
                      - self.G2[node]) - self.gamma_pen

    def leaves(self, which):
        values = _leaf_weight(self.G[which], self.H[which], self.lam)
        size = self.size[which]
        leaf = np.zeros(len(self.size), dtype=bool)
        leaf[which] = True
        self.step[self.asc[leaf.repeat(self.size)]] = np.repeat(values, size)
        return [{"leaf": True, "value": v, "n": n}
                for v, n in zip(values.tolist(), size.tolist())]


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
    return fit_gbts(X, [y], n_rounds, learning_rate, lam, gamma_pen,
                    max_depth, min_leaf, loss)[0]


def fit_gbts(X, targets, n_rounds: int = 50, learning_rate: float = 0.3,
             lam: float = 1.0, gamma_pen: float = 0.0, max_depth: int = 3,
             min_leaf: int = 1, loss: str = "squared",
             n_cols=None) -> list[GBTModel]:
    """One fit_gbt model per target, boosted together round by round: each
    model equals fit_gbt on its own target. With n_cols, target t splits
    only on the first n_cols[t] columns of X, and its model equals fit_gbt
    on X[:, :n_cols[t]] tree for tree."""
    if n_rounds < 1:
        raise ModelError("n_rounds must be >= 1")
    if lam < 0:
        raise ModelError("lam must be >= 0")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    for y in targets:
        require_finite(X, y)
    y = np.array(targets, dtype=np.float64)  # (targets, rows)
    T, n = y.shape
    draw = None
    if n_cols is not None:
        n_cols = np.asarray(n_cols, dtype=np.int64)
        if n_cols.shape != (T,) or not (1 <= n_cols).all() \
                or not (n_cols <= X.shape[1]).all():
            raise ModelError("n_cols needs one count in 1..%d per target"
                             % X.shape[1])
        # target t's columns: its prefix, padded by repeating its last
        # column; ties go to the first slot, so a padded slot never wins
        table = np.minimum(np.arange(n_cols.max()), n_cols[:, None] - 1)
        def draw(trees):  # a node's tree is its target
            return table[trees]
    if loss == "squared":
        base = [float(np.mean(t)) for t in y]
    elif loss == "logistic":
        p = [float(np.clip(np.mean(t), 1e-6, 1.0 - 1e-6)) for t in y]
        base = [float(np.log(b / (1.0 - b))) for b in p]
    else:
        raise ModelError("unknown loss %r" % loss)

    raw = np.repeat(base, n).reshape(T, n)
    trees = [[] for _ in range(T)]
    binned, src = Binned(X), np.tile(np.arange(n), T)
    memo = {}  # the roots' plan, the same every round
    for _ in range(n_rounds):
        if loss == "squared":
            booster = _Booster((raw - y).ravel(), None, lam, gamma_pen)
        else:
            prob = 1.0 / (1.0 + np.exp(-raw))
            booster = _Booster((prob - y).ravel(),
                               (prob * (1.0 - prob)).ravel(), lam, gamma_pen)
        roots = grow(binned, src, [n] * T, booster, max_depth, min_leaf,
                     draw, memo)
        for tree, root in zip(trees, roots):
            tree.append(root)
        raw += learning_rate * booster.step.reshape(T, n)
    return [GBTModel(tr, b, learning_rate, loss,
                     hyperparams={"n_rounds": n_rounds,
                                  "learning_rate": learning_rate, "lam": lam,
                                  "gamma_pen": gamma_pen,
                                  "max_depth": max_depth,
                                  "min_leaf": min_leaf})
            for tr, b in zip(trees, base)]
