"""One-vs-rest multiclass ensemble over binary scorers."""

from __future__ import annotations

import warnings

import numpy as np

from .base import Model, ModelError, from_envelope, register, to_envelope


@register
class ConstantScoreModel(Model):
    """Stands in for a class absent from the training data: always scores
    a large negative value so it never wins the argmax on real inputs."""

    family = "constant_score"
    SCORE = -1e18

    def __init__(self, **kw):
        kw.setdefault("task", "classification")
        super().__init__(**kw)

    def scores(self, X):
        return np.full(np.atleast_2d(X).shape[0], self.SCORE)

    def predict(self, X):
        return np.zeros(np.atleast_2d(X).shape[0], dtype=np.int64)

    def params_dict(self):
        return {}


@register
class OvREnsemble(Model):
    family = "ovr"

    def __init__(self, members, classes, **kw):
        kw.setdefault("task", "classification")
        super().__init__(**kw)
        if len(members) != len(classes):
            raise ModelError("one member per class required")
        self.members = members
        self.classes = list(classes)

    def predict_scores(self, X):
        return np.column_stack([m.scores(X) for m in self.members])

    def predict(self, X):
        return self.decide(self.predict_scores(X))

    @staticmethod
    def decide(scores):
        """The class of each row of a score matrix; argmax takes the lowest
        class index on ties."""
        return np.argmax(scores, axis=1).astype(np.int64)

    def params_dict(self):
        return {"classes": self.classes,
                "members": [to_envelope(m) for m in self.members]}

    @classmethod
    def from_params(cls, task, hyperparams, manifest, seed, params):
        return cls([from_envelope(env) for env in params["members"]],
                   params["classes"], hyperparams=hyperparams,
                   manifest=manifest, seed=seed)


def one_vs_rest(fit_fn, X, y, n_classes: int | None = None,
                labels: str = "01", joint: bool = False, n_cols=None):
    """Fit one binary scorer per class with fit_fn(X, y_binary).

    labels="01" passes {0,1} targets, labels="pm1" passes {-1,+1} (for SVM
    members). With joint=True, fit_fn(X, targets) fits the targets of all
    present classes in one call and returns their members in class order:
    every family of the grid that classifies one-vs-rest (logistic, SVM,
    GBT) fits so. The per-member path serves plain binary fitters, such
    as a lambda over fit_logistic. A class absent from y gets a constant
    always-negative member.

    With n_cols (joint only), the one call fits every present class's
    target once per count c, as fit_fn(X, targets, n_cols=...), and the
    result is a list of ensembles, one per count, whose members split only
    on the first c columns of X.
    """
    y = np.asarray(y, dtype=np.int64)
    if n_classes is None:
        n_classes = int(y.max()) + 1
    present = set(np.unique(y).tolist())
    if len(present) < 2:
        raise ModelError("one-vs-rest needs at least 2 classes present")
    targets = []
    for k in range(n_classes):
        if k not in present:
            warnings.warn("class %d absent from training data; member "
                          "trained as always-negative" % k)
            continue
        yk = (y == k).astype(np.int64)
        targets.append(2 * yk - 1 if labels == "pm1" else yk)
    if n_cols is not None:
        fitted = iter(fit_fn(X, targets * len(n_cols),
                             n_cols=np.repeat(n_cols, len(targets))))
        return [_ensemble(fitted, present, n_classes) for _ in n_cols]
    fitted = iter(fit_fn(X, targets) if joint
                  else [fit_fn(X, t) for t in targets])
    return _ensemble(fitted, present, n_classes)


def _ensemble(fitted, present, n_classes: int) -> OvREnsemble:
    """The next member from fitted for each present class, in class order."""
    members = [next(fitted) if k in present else ConstantScoreModel()
               for k in range(n_classes)]
    return OvREnsemble(members, list(range(n_classes)))
