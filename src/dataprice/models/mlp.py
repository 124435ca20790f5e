"""Feed-forward neural network trained by mini-batch gradient descent."""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite

_ACTIVATIONS = {
    "tanh": (np.tanh, lambda a: 1.0 - a ** 2),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0).astype(np.float64)),
}


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


@register
class MLPModel(Model):
    family = "mlp"

    def __init__(self, weights, biases, activation, n_classes=None, **kw):
        task = "regression" if n_classes is None else "classification"
        super().__init__(task, **kw)
        self.weights = [np.asarray(W, dtype=np.float64) for W in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]
        self.activation = activation
        self.n_classes = n_classes

    def _forward(self, X):
        return self._forward_from([X], X @ self.weights[0] + self.biases[0])

    def _forward_from(self, activations, z):
        """Run the layers after the first from its pre-activation z,
        appending each layer's output to activations; the last one is the
        raw output, before any softmax."""
        act, _ = _ACTIVATIONS[self.activation]
        for W, b in zip(self.weights[1:], self.biases[1:]):
            a = act(z)
            activations.append(a)
            z = a @ W + b
        activations.append(z)
        return activations

    def predict_scores(self, X):
        """Softmax class probabilities (classification) or raw outputs."""
        X = self._check_input(X)
        return self.scores_from_first_layer(X @ self.weights[0] + self.biases[0])

    def scores_from_first_layer(self, z):
        """predict_scores of the rows whose first-layer pre-activation
        X @ W + b is z."""
        z = self._forward_from([], z)[-1]
        if self.task == "classification":
            return _softmax(z)
        return z[:, 0]

    def predict(self, X):
        out = self.predict_scores(X)
        if self.task == "classification":
            return np.argmax(out, axis=1).astype(np.int64)
        return out

    def loss_and_grad(self, X, y):
        """Loss (mean cross-entropy or half mean squared error) plus the
        analytic gradients for every weight and bias."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n = X.shape[0]
        # overflow on a diverging run is reported via the NaN-loss abort,
        # not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            acts = self._forward(X)
            z = acts[-1]
            if self.task == "classification":
                probs = _softmax(z)
                y = np.asarray(y, dtype=np.int64)
                loss = -float(np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
                delta = probs.copy()
                delta[np.arange(n), y] -= 1.0
                delta /= n
            else:
                yv = np.asarray(y, dtype=np.float64).reshape(-1, 1)
                diff = z - yv
                loss = 0.5 * float(np.mean(diff ** 2))
                delta = diff / n
            _, dact = _ACTIVATIONS[self.activation]
            gW = [None] * len(self.weights)
            gb = [None] * len(self.biases)
            for layer in range(len(self.weights) - 1, -1, -1):
                gW[layer] = acts[layer].T @ delta
                gb[layer] = delta.sum(axis=0)
                if layer > 0:
                    delta = (delta @ self.weights[layer].T) * dact(acts[layer])
            return loss, gW, gb

    def params_dict(self):
        return {"weights": [W.tolist() for W in self.weights],
                "biases": [b.tolist() for b in self.biases],
                "activation": self.activation,
                "n_classes": self.n_classes}


def fit_mlp(X, y, hidden=(16,), activation="tanh", lr: float = 0.1,
            epochs: int = 500, batch_size: int | None = 32, seed: int = 0,
            task: str = "regression", n_classes: int | None = None) -> MLPModel:
    """Train by mini-batch gradient descent with a seeded shuffle each
    epoch (batch_size=None trains full batch). A NaN loss aborts with the
    epoch and learning rate in the message."""
    if not hidden:
        raise ModelError("need at least one hidden layer")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    n, p = X.shape
    if task == "classification":
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        out_dim = n_classes
    else:
        y = np.asarray(y, dtype=np.float64)
        n_classes = None
        out_dim = 1

    rng = np.random.default_rng(seed)
    sizes = [p] + list(hidden) + [out_dim]
    weights = [rng.normal(0.0, np.sqrt(2.0 / (a + b)), size=(a, b))
               for a, b in zip(sizes, sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    model = MLPModel(weights, biases, activation, n_classes,
                     hyperparams={"hidden": list(hidden), "activation": activation,
                                  "lr": lr, "epochs": epochs,
                                  "batch_size": batch_size},
                     seed=seed)

    bs = n if batch_size is None else min(batch_size, n)
    for epoch in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start:start + bs]
            loss, gW, gb = model.loss_and_grad(X[idx], y[idx])
            if not np.isfinite(loss):
                raise ModelError(
                    "NaN/inf loss at epoch %d (lr=%g); reduce the learning rate"
                    % (epoch, lr))
            for layer in range(len(model.weights)):
                model.weights[layer] -= lr * gW[layer]
                model.biases[layer] -= lr * gb[layer]
    return model
