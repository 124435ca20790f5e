"""Linear regression (ridge) and logistic regression."""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


@register
class LinearModel(Model):
    family = "linear"

    def __init__(self, w, b, rank_deficient=False, **kw):
        super().__init__("regression", **kw)
        self.w = np.asarray(w, dtype=np.float64)
        self.b = float(b)
        self.rank_deficient = bool(rank_deficient)

    def predict(self, X):
        return self._check_input(X) @ self.w + self.b

    def params_dict(self):
        return {"w": self.w.tolist(), "b": self.b,
                "rank_deficient": self.rank_deficient}


def fit_linear(X, y, ridge: float = 0.0) -> LinearModel:
    """Least squares with optional L2 penalty on the weights (never on the
    intercept). With ridge=0 a rank-deficient system falls back to the
    pseudo-inverse solution and the model is flagged."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if n < 2:
        raise ModelError("need at least 2 rows")
    if ridge < 0:
        raise ModelError("ridge must be >= 0")
    A = np.hstack([X, np.ones((n, 1))])
    rank_deficient = False
    if ridge > 0:
        reg = ridge * np.eye(p + 1)
        reg[p, p] = 0.0
        coef = np.linalg.solve(A.T @ A + reg, A.T @ y)
    else:
        coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
        rank_deficient = rank < p + 1
    return LinearModel(coef[:p], coef[p], rank_deficient,
                       hyperparams={"ridge": ridge})


@register
class LogisticModel(Model):
    family = "logistic"

    def __init__(self, w, b, **kw):
        super().__init__("classification", **kw)
        self.w = np.asarray(w, dtype=np.float64)
        self.b = float(b)

    def decision_function(self, X):
        return self._check_input(X) @ self.w + self.b

    def predict_proba(self, X):
        return sigmoid(self.decision_function(X))

    def scores(self, X):
        return self.predict_proba(X)

    def predict(self, X):
        return (self.predict_proba(X) >= 0.5).astype(np.int64)

    def params_dict(self):
        return {"w": self.w.tolist(), "b": self.b}


def fit_logistic(X, y, lr: float = 0.5, epochs: int = 500) -> LogisticModel:
    """Binary logistic regression trained by full-batch gradient descent on
    the cross-entropy loss."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    y = np.asarray(y, dtype=np.float64)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ModelError("logistic regression needs both classes present")
    n, p = X.shape
    w = np.zeros(p)
    b = 0.0
    for _ in range(epochs):
        prob = sigmoid(X @ w + b)
        err = prob - y
        gw = X.T @ err / n
        gb = float(np.mean(err))
        w -= lr * gw
        b -= lr * gb
    # saved models record the weight penalty, which is zero
    return LogisticModel(w, b, hyperparams={"lr": lr, "epochs": epochs, "l2": 0.0})
