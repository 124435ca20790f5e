"""Shared model plumbing: base class, persistence envelope, standardization."""

from __future__ import annotations

import json

import numpy as np

# 2: forest trees split on the model's columns and keep no column subsets
FORMAT_VERSION = 2

_REGISTRY: dict[str, type] = {}


class ModelError(ValueError):
    pass


def register(cls):
    _REGISTRY[cls.family] = cls
    return cls


class Model:
    """Base fitted model. Subclasses set `family` and implement predict()
    and params_dict(); they override from_params() when their params are
    not the keyword arguments of their constructor."""

    family = "base"

    def __init__(self, task: str, hyperparams: dict | None = None,
                 manifest: list[str] | None = None, seed: int | None = None):
        if task not in ("regression", "classification"):
            raise ModelError("unknown task %r" % task)
        self.task = task
        self.hyperparams = dict(hyperparams or {})
        self.manifest = list(manifest) if manifest else None
        self.seed = seed

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if self.manifest is not None and X.shape[1] != len(self.manifest):
            raise ModelError(
                "input has %d columns but the model was trained on %d (%s...)"
                % (X.shape[1], len(self.manifest), ", ".join(self.manifest[:3])))
        if not np.isfinite(X).all():
            raise ModelError("non-finite value (NaN or inf) in the input")
        return X

    def predict(self, X):  # pragma: no cover - abstract
        raise NotImplementedError

    def params_dict(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def from_params(cls, task, hyperparams, manifest, seed, params):
        """The model of saved params, which by default are the keyword
        arguments of the constructor."""
        return cls(**params, hyperparams=hyperparams, manifest=manifest,
                   seed=seed)


def to_envelope(model: Model) -> dict:
    """The saved form of a model: its family, task, hyperparameters,
    feature manifest, seed and params."""
    return {"family": model.family, "task": model.task,
            "hyperparameters": model.hyperparams, "manifest": model.manifest,
            "seed": model.seed, "params": model.params_dict()}


def from_envelope(env: dict) -> Model:
    """The model of a saved envelope; a malformed one raises ModelError."""
    family = env.get("family")
    if family not in _REGISTRY:
        raise ModelError("unknown model family %r" % family)
    try:
        model = _REGISTRY[family].from_params(
            env["task"], env["hyperparameters"], env["manifest"],
            env.get("seed"), env["params"])
    except (KeyError, TypeError) as exc:
        raise ModelError("malformed %s model: %s: %s"
                         % (family, type(exc).__name__, exc)) from exc
    if model.task != env["task"]:
        raise ModelError("malformed %s model: task %r, params give %r"
                         % (family, env["task"], model.task))
    # a constructor default would stand in for a missing param silently
    saved, expected = set(env["params"]), set(model.params_dict())
    if saved != expected:
        raise ModelError("malformed %s model: params lack %s, have extra %s"
                         % (family, sorted(expected - saved),
                            sorted(saved - expected)))
    return model


def save_model(model: Model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format_version": FORMAT_VERSION, **to_envelope(model)},
                  fh, sort_keys=True)
        fh.write("\n")


def load_model(path) -> Model:
    try:
        with open(path, encoding="utf-8") as fh:
            env = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelError("corrupted model file %s: %s" % (path, exc))
    if env.get("format_version") != FORMAT_VERSION:
        raise ModelError("unsupported model format version %r"
                         % env.get("format_version"))
    return from_envelope(env)


def require_finite(X: np.ndarray, y) -> None:
    """Reject NaN or inf, which a split search would sort and place, a
    kernel solver carry into its multipliers and a least-squares or
    gradient fit into its weights, silently."""
    if not (np.isfinite(X).all() and np.isfinite(np.asarray(y, float)).all()):
        raise ModelError("non-finite value (NaN or inf) in the training data")


class Standardizer:
    """Per-column z-scoring fitted on training data only. Constant columns
    pass through unscaled."""

    def __init__(self, mean: np.ndarray, scale: np.ndarray):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)

    @staticmethod
    def fit(X: np.ndarray) -> "Standardizer":
        X = np.asarray(X, dtype=np.float64)
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
        scale = np.where(scale > 0, scale, 1.0)
        return Standardizer(mean, scale)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean) / self.scale


@register
class StandardizedModel(Model):
    """Wraps a fitted model with the standardizer fitted on its training
    folds, so persisted models carry their own scaling."""

    family = "standardized"

    def __init__(self, inner: Model, standardizer: Standardizer, **kw):
        kw = {"hyperparams": inner.hyperparams, "manifest": inner.manifest,
              "seed": inner.seed, **kw}
        super().__init__(inner.task, **kw)
        self.inner = inner
        self.standardizer = standardizer

    def _scaled(self, X):
        return self.standardizer.transform(self._check_input(X))

    def predict(self, X):
        return self.inner.predict(self._scaled(X))

    # the two score accessors callers use: a one-vs-rest member's binary
    # score and a multiclass model's score matrix
    def scores(self, X):
        return self.inner.scores(self._scaled(X))

    def predict_scores(self, X):
        return self.inner.predict_scores(self._scaled(X))

    def params_dict(self) -> dict:
        inner = to_envelope(self.inner)
        return {"mean": self.standardizer.mean.tolist(),
                "scale": self.standardizer.scale.tolist(),
                "inner_family": inner.pop("family"), "inner": inner}

    @classmethod
    def from_params(cls, task, hyperparams, manifest, seed, params):
        inner = from_envelope(dict(params["inner"], family=params["inner_family"]))
        return cls(inner, Standardizer(np.array(params["mean"]),
                                       np.array(params["scale"])),
                   hyperparams=hyperparams, manifest=manifest, seed=seed)


def fit_standardized(fit_fn, X, y, **kwargs):
    """fit_fn on X's columns standardized, and its model wrapped with the
    Standardizer; a list of models, which a joint fitter returns for a
    list of targets, shares one."""
    std = Standardizer.fit(X)
    fitted = fit_fn(std.transform(X), y, **kwargs)
    if isinstance(fitted, list):
        return [StandardizedModel(model, std) for model in fitted]
    return StandardizedModel(fitted, std)
