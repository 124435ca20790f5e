import json

import numpy as np
import pytest

from dataprice.evaluate import N_TIERS, fit_family, merge_config
from dataprice.models import (ConstantScoreModel, ModelError, OvREnsemble,
                              fit_cart, fit_forest, fit_gbt, fit_linear,
                              fit_logistic, fit_mlp, fit_standardized,
                              fit_svm, fit_svr, load_model, one_vs_rest,
                              save_model)
from dataprice.models.base import FORMAT_VERSION


def data(seed=0, n=40, p=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    return X, X @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=n)


class TestSaveLoad:
    def roundtrip(self, model, X, tmp_path, scorer="predict"):
        path = tmp_path / "m.json"
        save_model(model, path)
        back = load_model(path)
        assert np.allclose(getattr(model, scorer)(X), getattr(back, scorer)(X))
        return back

    def test_linear(self, tmp_path):
        X, y = data()
        self.roundtrip(fit_linear(X, y, ridge=0.5), X, tmp_path)

    def test_logistic(self, tmp_path):
        X, y = data()
        self.roundtrip(fit_logistic(X, (y > 0).astype(int), epochs=50), X,
                       tmp_path, "predict_proba")

    def test_mlp(self, tmp_path):
        X, y = data()
        self.roundtrip(fit_mlp(X, y, hidden=(4,), epochs=20, seed=0), X, tmp_path)

    def test_cart(self, tmp_path):
        X, y = data()
        self.roundtrip(fit_cart(X, y, max_depth=4), X, tmp_path)

    def test_svm(self, tmp_path):
        X, y = data()
        yy = np.where(y > 0, 1.0, -1.0)
        model = fit_svm(X, yy, C=1.0, kernel="rbf", gamma=0.3)
        back = self.roundtrip(model, X, tmp_path, "decision_function")
        # the solver's stop: steps taken, final KKT gap, converged
        assert back.hyperparams == model.hyperparams
        assert {"iterations", "gap", "converged"} <= set(back.hyperparams)

    def test_svr(self, tmp_path):
        X, y = data()
        model = fit_svr(X, y, kernel="rbf", gamma=0.3, max_iter=500)
        back = self.roundtrip(model, X, tmp_path)
        assert back.hyperparams == model.hyperparams
        assert {"iterations", "gap", "converged"} <= set(back.hyperparams)

    def test_forest(self, tmp_path):
        X, y = data()
        self.roundtrip(fit_forest(X, y, n_trees=5, max_depth=3, seed=0), X,
                       tmp_path)

    def test_format_1_forest_refused(self, tmp_path):
        # format 1 kept a column subset per forest tree, and its trees split
        # on the subset's own columns
        X, y = data()
        path = tmp_path / "v1.json"
        save_model(fit_forest(X, y, n_trees=2, max_depth=2, seed=0), path)
        env = json.loads(path.read_text())
        env["format_version"] = 1
        env["params"]["feature_subsets"] = [[0, 2], [1, 2]]
        path.write_text(json.dumps(env))
        with pytest.raises(ModelError, match="version 1"):
            load_model(path)

    def test_gbt(self, tmp_path):
        X, y = data()
        self.roundtrip(fit_gbt(X, y, n_rounds=10), X, tmp_path)

    def test_standardized_wrapper(self, tmp_path):
        X, y = data()
        m = fit_standardized(fit_linear, X, y, ridge=1.0)
        back = self.roundtrip(m, X, tmp_path)
        assert back.family == "standardized"

    def test_ovr_nested(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
        m = one_vs_rest(lambda Xb, yb: fit_logistic(Xb, yb, epochs=50), X, y)
        self.roundtrip(m, X, tmp_path, "predict_scores")

    def test_corrupted_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ModelError, match="corrupt"):
            load_model(path)

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "v.json"
        path.write_text(json.dumps({"format_version": 99, "family": "linear"}))
        with pytest.raises(ModelError, match="version"):
            load_model(path)

    def test_unknown_family(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"format_version": FORMAT_VERSION,
                                    "family": "catboost"}))
        with pytest.raises(ModelError, match="family"):
            load_model(path)

    def test_manifest_checked_on_predict(self, tmp_path):
        X, y = data()
        m = fit_linear(X, y)
        m.manifest = ["a", "b", "c"]
        with pytest.raises(ModelError, match="columns"):
            m.predict(np.zeros((2, 5)))


FAMILIES = ["linear", "mlp", "cart", "svm", "forest", "gbt"]


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("family", FAMILIES)
def test_every_family_round_trips_byte_for_byte(family, task, tmp_path):
    X, y = data(4, n=60)
    target = y if task == "regression" else np.digitize(
        y, np.quantile(y, np.linspace(0, 1, N_TIERS + 1)[1:-1]))
    cfg = merge_config({"gbt": {"n_rounds": 5}, "mlp": {"epochs": 5},
                        "forest": {"n_trees": 4}})
    model = fit_family(family, X, target, task, N_TIERS, cfg, 3)
    model.manifest = ["a", "b", "c"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_model(model, first)
    back = load_model(first)
    save_model(back, second)
    assert second.read_bytes() == first.read_bytes()
    assert back.manifest == ["a", "b", "c"]
    assert back.predict(X).tobytes() == model.predict(X).tobytes()


class TestMalformedFile:
    """A model file that parses but does not describe a model is a
    ModelError, so the CLI reports it as bad input."""

    def load_edited(self, model, edit, tmp_path):
        path = tmp_path / "m.json"
        save_model(model, path)
        env = json.loads(path.read_text())
        edit(env)
        path.write_text(json.dumps(env))
        return load_model(path)

    def test_unknown_inner_family(self, tmp_path):
        X, y = data()
        m = fit_standardized(fit_linear, X, y)
        with pytest.raises(ModelError, match="catboost"):
            self.load_edited(m, lambda env: env["params"].update(
                inner_family="catboost"), tmp_path)

    def test_unknown_member_family(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
        m = one_vs_rest(lambda Xb, yb: fit_logistic(Xb, yb, epochs=10), X, y)
        with pytest.raises(ModelError, match="xgb"):
            self.load_edited(m, lambda env: env["params"]["members"][1].update(
                family="xgb"), tmp_path)

    def test_missing_param(self, tmp_path):
        X, y = data()
        with pytest.raises(ModelError, match="malformed"):
            self.load_edited(fit_linear(X, y),
                             lambda env: env["params"].pop("w"), tmp_path)
        with pytest.raises(ModelError, match="malformed"):
            self.load_edited(fit_forest(X, y, n_trees=2, seed=0),
                             lambda env: env["params"].pop("trees"), tmp_path)
        # a defaulted param that would silently change the task
        yc = (y > 0).astype(int)
        with pytest.raises(ModelError, match="task"):
            self.load_edited(fit_cart(X, yc, task="classification"),
                             lambda env: env["params"].pop("n_classes"),
                             tmp_path)

    def test_missing_defaulted_param(self, tmp_path):
        X, y = data()
        with pytest.raises(ModelError, match=r"lack \['rank_deficient'\]"):
            self.load_edited(fit_linear(X, y),
                             lambda env: env["params"].pop("rank_deficient"),
                             tmp_path)

    def test_extra_param(self, tmp_path):
        X, y = data()
        m = fit_standardized(fit_svr, X, y, max_iter=50)
        with pytest.raises(ModelError, match="malformed"):
            self.load_edited(m, lambda env: env["params"]["inner"]["params"]
                             .update(bogus=1), tmp_path)


def test_standardized_checks_its_manifest(tmp_path):
    X, y = data()
    m = fit_standardized(fit_linear, X, y)
    m.manifest = ["a", "b", "c"]
    path = tmp_path / "m.json"
    save_model(m, path)
    back = load_model(path)
    assert back.manifest == ["a", "b", "c"]
    assert (back.hyperparams, back.seed) == (m.hyperparams, m.seed)
    with pytest.raises(ModelError, match="columns"):
        back.predict(np.zeros((2, 5)))


class TestOvR:
    def test_argmax_tie_breaks_low(self):
        class Fixed:
            family = "fixed"
            task = "classification"

            def __init__(self, v):
                self.v = v

            def scores(self, X):
                return np.full(np.atleast_2d(X).shape[0], self.v)

        m = OvREnsemble([Fixed(1.0), Fixed(1.0), Fixed(0.0)], [0, 1, 2])
        assert m.predict(np.zeros((3, 2))).tolist() == [0, 0, 0]

    def test_absent_class_constant_member(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 2))
        y = (X[:, 0] > 0).astype(int)  # classes 0 and 1 only
        with pytest.warns(UserWarning, match="absent"):
            m = one_vs_rest(lambda Xb, yb: fit_logistic(Xb, yb, epochs=30),
                            X, y, n_classes=3)
        assert isinstance(m.members[2], ConstantScoreModel)
        assert not np.any(m.predict(X) == 2)

    def test_pm1_labels_for_svm_members(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-2, 0.3, (20, 2)), rng.normal(0, 0.3, (20, 2)),
                       rng.normal(2, 0.3, (20, 2))])
        y = np.array([0] * 20 + [1] * 20 + [2] * 20)
        m = one_vs_rest(lambda Xb, yb: fit_svm(Xb, yb, C=2.0, kernel="rbf",
                                               gamma=1.0),
                        X, y, labels="pm1")
        assert np.mean(m.predict(X) == y) > 0.9

    def test_single_class_rejected(self):
        with pytest.raises(ModelError):
            one_vs_rest(lambda Xb, yb: None, np.zeros((5, 1)), np.zeros(5, int))
