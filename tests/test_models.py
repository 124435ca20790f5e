import gc
import importlib
import warnings
import weakref
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataprice.evaluate import fit_family, merge_config, model_scores
from dataprice.models import (ConstantScoreModel, ModelError, fit_cart,
                              fit_forest, fit_gbt, fit_gbts, fit_linear,
                              fit_logistic, fit_mlp, fit_standardized,
                              fit_svm, fit_svms, fit_svr, kernel_matrix,
                              load_model, one_vs_rest, save_model)
from dataprice.models import gbt, svm, tree
from dataprice.models.base import Model
from dataprice.models.forest import _tree_rng
from dataprice.models.gbt import _leaf_weight
from dataprice.models.tree import (int_cumsums, node_sums, segment_cumsums,
                                   segment_sums)


# reference oracles: plain definitions the fitted models are checked against

def tree_predict_row(node, x):
    """The leaf of a dict tree that row x reaches."""
    while not node["leaf"]:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return node


def dual_objective(alpha, y, K) -> float:
    """Soft-margin SVM dual value at the given multipliers."""
    ay = alpha * y
    return float(np.sum(alpha) - 0.5 * ay @ K @ ay)


def rejects_non_finite(fit):
    """fit raises ModelError on a NaN in X and on an inf in y."""
    X = np.random.default_rng(14).normal(size=(10, 3))
    y = (X[:, 0] > 0).astype(float)
    X_nan = X.copy()
    X_nan[4, 1] = np.nan
    with pytest.raises(ModelError, match="non-finite"):
        fit(X_nan, y)
    with pytest.raises(ModelError, match="non-finite"):
        fit(X, np.where(np.arange(10) == 2, np.inf, y))


def epsilon_loss(z, epsilon: float):
    """The epsilon-insensitive loss of residuals z."""
    return np.maximum(np.abs(np.asarray(z, dtype=np.float64)) - epsilon, 0.0)


class TestLinear:
    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 4))
        w_true = np.array([2.0, -1.0, 0.5, 3.0])
        y = X @ w_true + 7.0
        m = fit_linear(X, y)
        assert np.max(np.abs(m.w - w_true)) < 1e-8
        assert abs(m.b - 7.0) < 1e-8
        assert not m.rank_deficient

    def test_ridge_shrinks_but_not_intercept(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([1.0, 1.0, 1.0]) + 5.0
        m0 = fit_linear(X, y, ridge=0.0)
        m1 = fit_linear(X, y, ridge=100.0)
        assert np.linalg.norm(m1.w) < np.linalg.norm(m0.w)
        # the intercept absorbs the mean instead of being shrunk to zero
        assert abs(m1.b - np.mean(y - X @ m1.w)) < 1e-8

    def test_ridge_closed_form_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        lam = 2.5
        m = fit_linear(X, y, ridge=lam)
        A = np.hstack([X, np.ones((40, 1))])
        reg = lam * np.eye(4)
        reg[3, 3] = 0.0
        coef = np.linalg.solve(A.T @ A + reg, A.T @ y)
        assert np.allclose(np.append(m.w, m.b), coef, atol=1e-10)

    def test_rank_deficient_flagged(self):
        X = np.ones((10, 2))
        X[:, 1] = np.arange(10)
        X = np.column_stack([X, X[:, 1]])  # duplicate column
        m = fit_linear(X, X[:, 1])
        assert m.rank_deficient

    def test_logistic_separates(self):
        rng = np.random.default_rng(3)
        X = np.vstack([rng.normal(-2, 0.5, (40, 2)), rng.normal(2, 0.5, (40, 2))])
        y = np.array([0] * 40 + [1] * 40)
        m = fit_logistic(X, y, lr=0.5, epochs=500)
        assert np.mean(m.predict(X) == y) == 1.0
        p = m.predict_proba(X)
        assert np.all((p >= 0) & (p <= 1))

    def test_logistic_single_class_rejected(self):
        with pytest.raises(ModelError):
            fit_logistic(np.ones((5, 1)), np.zeros(5))

    @pytest.mark.parametrize("fit", [partial(fit_linear, ridge=0.0),
                                     partial(fit_linear, ridge=1.0),
                                     fit_logistic])
    def test_rejects_non_finite_input(self, fit):
        rejects_non_finite(fit)


class TestMLP:
    def test_solves_xor(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        m = fit_mlp(X, y, hidden=(8,), lr=0.5, epochs=2000, batch_size=None,
                    seed=0, task="classification", n_classes=2)
        assert np.array_equal(m.predict(X), y)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        m = fit_mlp(X, y, hidden=(5,), epochs=1, seed=1)
        loss, gW, gb = m.loss_and_grad(X, y)
        h = 1e-6
        for layer in range(len(m.weights)):
            W = m.weights[layer]
            for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1)]:
                W[idx] += h
                hi = m.loss_and_grad(X, y)[0]
                W[idx] -= 2 * h
                lo = m.loss_and_grad(X, y)[0]
                W[idx] += h
                fd = (hi - lo) / (2 * h)
                assert fd == pytest.approx(gW[layer][idx], rel=1e-4, abs=1e-8)

    def test_regression_fits_linear_function(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1, 1, size=(200, 2))
        y = 2 * X[:, 0] - X[:, 1]
        m = fit_mlp(X, y, hidden=(16,), lr=0.1, epochs=400, seed=0)
        mse = float(np.mean((m.predict(X) - y) ** 2))
        assert mse < 0.01

    def test_nan_loss_aborts_with_message(self):
        X = np.full((10, 2), 1e3)
        y = np.full(10, 1e3)
        with pytest.raises(ModelError, match="learning rate"):
            fit_mlp(X, y, hidden=(4,), lr=1e6, epochs=50, activation="relu", seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        X, y = rng.normal(size=(30, 3)), rng.normal(size=30)
        m1 = fit_mlp(X, y, hidden=(4,), epochs=10, seed=2)
        m2 = fit_mlp(X, y, hidden=(4,), epochs=10, seed=2)
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_rejects_non_finite_input(self, task):
        rejects_non_finite(partial(fit_mlp, hidden=(4,), epochs=5, task=task))


class TestCART:
    def test_reproduces_step_function(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float) * 3.0
        m = fit_cart(X, y, max_depth=3)
        assert np.allclose(m.predict(X), y)
        assert not m.root["leaf"]
        assert m.root["threshold"] == pytest.approx(0.5, abs=0.01)

    def test_left_on_equality(self):
        root = {"leaf": False, "feature": 0, "threshold": 1.0, "n": 2,
                "left": {"leaf": True, "value": -1.0, "n": 1},
                "right": {"leaf": True, "value": 1.0, "n": 1}}
        assert tree_predict_row(root, np.array([1.0]))["value"] == -1.0

    def test_cover_counts_partition(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        m = fit_cart(X, y, max_depth=4)

        def check(node):
            if node["leaf"]:
                return node["n"]
            assert node["n"] == check(node["left"]) + check(node["right"])
            return node["n"]

        assert check(m.root) == 50

    def test_classification_gini_and_probs(self):
        X = np.array([[0.0], [0.1], [0.9], [1.0], [1.1]])
        y = np.array([0, 0, 1, 1, 2])
        m = fit_cart(X, y, max_depth=1, task="classification", n_classes=3)
        probs = m.predict_scores(X)
        assert probs.shape == (5, 3)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_min_leaf_respected(self):
        X = np.arange(10, dtype=float).reshape(-1, 1)
        y = X[:, 0]
        m = fit_cart(X, y, max_depth=10, min_leaf=3)

        def leaves(node):
            if node["leaf"]:
                return [node["n"]]
            return leaves(node["left"]) + leaves(node["right"])

        assert min(leaves(m.root)) >= 3

    def test_rejects_non_finite_input(self):
        X, y = np.arange(6, dtype=float).reshape(-1, 1), np.arange(6.0)
        with pytest.raises(ModelError, match="non-finite"):
            fit_cart(np.where(X == 2, np.nan, X), y)
        with pytest.raises(ModelError, match="non-finite"):
            fit_cart(X, np.where(y == 2, np.inf, y))


class TestSVM:
    def test_two_point_analytic_solution(self):
        # +1 at x=1, -1 at x=-1: w = 2/|x1-x2|^2 * ... => alpha = 0.5, w=1, b=0
        X = np.array([[1.0], [-1.0]])
        y = np.array([1.0, -1.0])
        m = fit_svm(X, y, C=10.0, kernel="linear")
        assert m.decision_function(np.array([[1.0]]))[0] == pytest.approx(1.0, abs=1e-6)
        assert m.decision_function(np.array([[-1.0]]))[0] == pytest.approx(-1.0, abs=1e-6)
        assert m.b == pytest.approx(0.0, abs=1e-6)
        # recovered dual coefficients alpha_i y_i = +-0.5
        assert sorted(np.round(m.coef, 6).tolist()) == [-0.5, 0.5]

    def test_kkt_conditions_within_tol(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(-1, 1, (30, 2)), rng.normal(1, 1, (30, 2))])
        y = np.array([-1.0] * 30 + [1.0] * 30)
        C, tol = 1.0, 1e-3
        m = fit_svm(X, y, C=C, kernel="rbf", gamma=0.5, tol=tol)
        # rebuild the full alpha vector from the stored support coefficients
        f = m.decision_function(X)
        K = kernel_matrix(X, m.support_vectors, "rbf", 0.5)
        # margins for every training point
        for i in range(len(y)):
            margin = y[i] * f[i]
            # find alpha for this point if it is a support vector
            alpha = 0.0
            for s in range(len(m.support_vectors)):
                if np.allclose(X[i], m.support_vectors[s]):
                    alpha = abs(m.coef[s])
                    break
            if alpha < 1e-9:
                assert margin >= 1 - tol - 1e-6
            elif alpha > C - 1e-9:
                assert margin <= 1 + tol + 1e-6
            else:
                assert margin == pytest.approx(1.0, abs=tol + 1e-6)

    def test_dual_objective_increases_vs_zero(self):
        rng = np.random.default_rng(9)
        X = np.vstack([rng.normal(-1, 0.7, (20, 2)), rng.normal(1, 0.7, (20, 2))])
        y = np.array([-1.0] * 20 + [1.0] * 20)
        m = fit_svm(X, y, C=1.0, kernel="linear")
        # evaluate the dual at the recovered support multipliers
        alpha = np.abs(m.coef)
        ysv = np.sign(m.coef)
        K = kernel_matrix(m.support_vectors, m.support_vectors, "linear")
        assert dual_objective(alpha, ysv, K) > 0.0

    def test_separable_data_classified(self):
        rng = np.random.default_rng(10)
        X = np.vstack([rng.normal(-2, 0.4, (25, 2)), rng.normal(2, 0.4, (25, 2))])
        y = np.array([-1] * 25 + [1] * 25)
        m = fit_svm(X, y, C=5.0, kernel="linear")
        assert np.array_equal(m.predict(X), y)

    def test_label_validation(self):
        with pytest.raises(ModelError):
            fit_svm(np.eye(2), np.array([0.0, 1.0]))

    def test_rejects_non_finite_input(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(10, 3))
        y = np.where(X[:, 0] > 0, 1.0, -1.0)
        X[4, 1] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            fit_svm(X, y)
        with pytest.raises(ModelError, match="non-finite"):
            fit_svm(np.nan_to_num(X), np.where(np.arange(10) == 2, np.inf, y))

    @staticmethod
    def duality_gap(m, X, y, C):
        """(primal - dual) / primal at the fitted multipliers, which are
        |coef| on the support vectors and 0 elsewhere."""
        K = kernel_matrix(m.support_vectors, m.support_vectors, m.kernel,
                          m.gamma)
        norm = float(m.coef @ K @ m.coef)
        hinge = np.maximum(0.0, 1.0 - y * m.decision_function(X))
        primal = 0.5 * norm + C * float(hinge.sum())
        dual = float(np.abs(m.coef).sum()) - 0.5 * norm
        return (primal - dual) / primal

    @staticmethod
    def noisy_linear(seed):
        """120 rows of 20 columns, labelled by the sign of column 0 plus
        noise."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(120, 20))
        return X, np.where(X[:, 0] + 0.8 * rng.normal(size=120) > 0, 1.0, -1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_linear_kernel_reaches_the_optimum(self, seed):
        X, y = self.noisy_linear(seed)
        m = fit_svm(X, y, C=1.0, kernel="linear")
        assert self.duality_gap(m, X, y, 1.0) <= 1e-3

    def test_rbf_kernel_reaches_the_optimum(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(-1, 1, (30, 2)), rng.normal(1, 1, (30, 2))])
        y = np.array([-1.0] * 30 + [1.0] * 30)
        m = fit_svm(X, y, C=1.0, kernel="rbf", gamma=0.5)
        assert self.duality_gap(m, X, y, 1.0) <= 1e-3

    def test_zero_tol_ends_inside_the_box(self):
        X, y = self.noisy_linear(0)
        C = 1.0
        m = fit_svm(X, y, C=C, kernel="linear", tol=0.0)
        rows = [np.flatnonzero((X == sv).all(axis=1))[0]
                for sv in m.support_vectors]
        alpha = m.coef * y[rows]
        assert np.all((alpha >= 0) & (alpha <= C))
        assert abs(m.coef.sum()) <= 1e-9

    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_records_a_stop_on_the_gap(self, kernel):
        X, y = self.noisy_linear(0)
        m = fit_svm(X, y, C=1.0, kernel=kernel, gamma=0.5)
        hp = m.hyperparams
        assert hp["converged"] is True and 0.0 < hp["gap"] <= hp["tol"]
        assert 0 < hp["iterations"] < svm.SMO_STEPS_PER_ROW * len(y)

    def test_records_a_stop_at_the_cap(self, monkeypatch):
        # one step per row ends 120 steps in, far from the KKT conditions
        monkeypatch.setattr(svm, "SMO_STEPS_PER_ROW", 1)
        X, y = self.noisy_linear(0)
        hp = fit_svm(X, y, C=1.0, kernel="linear").hyperparams
        assert hp["converged"] is False and hp["gap"] > hp["tol"]
        assert hp["iterations"] == len(y)


class TestSVR:
    def test_fits_linear_trend(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, size=(60, 1))
        y = 3.0 * X[:, 0] + 1.0
        m = fit_svr(X, y, C=10.0, epsilon=0.05, kernel="linear", max_iter=4000)
        pred = m.predict(X)
        assert float(np.mean(np.abs(pred - y))) < 0.1

    def test_predictions_inside_tube_ignored(self):
        # epsilon larger than the data spread: flat solution, loss zero
        X, y = self.tube()
        m = fit_svr(X, y, C=1.0, epsilon=0.5, kernel="linear")
        assert np.all(epsilon_loss(m.predict(X) - y, 0.5) == 0.0)

    def test_epsilon_loss_values(self):
        assert epsilon_loss(np.array([0.3, -0.05, 1.1]), 0.1).tolist() == \
            pytest.approx([0.2, 0.0, 1.0])

    @staticmethod
    def planar():
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        return X, X[:, 0] - 2 * X[:, 1] + 0.01 * rng.normal(size=30)

    @staticmethod
    def tube():
        """Targets that an epsilon of 0.5 holds at coef 0."""
        return (np.arange(4, dtype=float).reshape(-1, 1),
                np.array([0.01, -0.02, 0.015, 0.0]))

    @staticmethod
    def row_coef(m, X):
        """The saved coefficients spread over the training rows of X, 0
        where a row is no support vector."""
        coef = np.zeros(len(X))
        for sv, c in zip(m.support_vectors, m.coef):
            coef[np.flatnonzero((X == sv).all(axis=1))] = c
        return coef

    def test_sum_constraint_respected(self):
        X, y = self.planar()
        m = fit_svr(X, y, C=5.0, epsilon=0.01, kernel="rbf", gamma=0.5)
        assert abs(float(np.sum(m.coef))) < 1e-6
        hp = m.hyperparams
        assert hp["converged"] is True and hp["iterations"] < hp["max_iter"]
        assert hp["max_iter"] == svm.SMO_STEPS_PER_ROW * 2 * len(y)

    def test_saved_fit_certifies_its_gap(self):
        # P and D of the collapsed dual, and the KKT gap of the 2n-variable
        # dual, from the saved coefficients, bias and training predictions
        # alone
        X, y = self.planar()
        C, eps = 5.0, 0.01
        m = fit_svr(X, y, C=C, epsilon=eps, kernel="rbf", gamma=0.5)
        beta = self.row_coef(m, X)
        f = m.predict(X)
        quad = float(beta @ (f - m.b))  # beta' K beta
        dual = -0.5 * quad - eps * float(np.abs(beta).sum()) + float(y @ beta)
        primal = 0.5 * quad + C * float(epsilon_loss(f - y, eps).sum())
        assert primal > 0
        assert (primal - dual) / primal <= m.hyperparams["tol"]
        # alpha = max(beta, 0) in [0, C] reads y - eps, -alpha* = min(beta,
        # 0) in [-C, 0] reads y + eps, each less f - b
        F = np.concatenate((y - eps, y + eps)) - np.tile(f - m.b, 2)
        v = np.concatenate((np.maximum(beta, 0.0), np.minimum(beta, 0.0)))
        lo, hi = np.repeat([0.0, -C], len(y)), np.repeat([C, 0.0], len(y))
        kkt = float(np.max(F[v < hi]) - np.min(F[v > lo]))
        assert kkt == pytest.approx(m.hyperparams["gap"], abs=1e-9)

    def test_saved_model_keeps_its_tube(self, tmp_path):
        # within tol: free support vectors lie on the tube's edge, those
        # at the bound on or outside it, every other row inside it
        X, y = self.planar()
        C, eps = 5.0, 0.01
        m = fit_svr(X, y, C=C, epsilon=eps, kernel="rbf", gamma=0.5)
        path = tmp_path / "svr.json"
        save_model(m, path)
        back = load_model(path)
        coef = self.row_coef(back, X)
        dev = np.abs(back.predict(X) - y)
        slack = back.hyperparams["tol"] + 1e-9
        free = (coef != 0) & (np.abs(coef) < C)
        bound = np.abs(coef) == C
        assert free.any() and bound.any()
        assert np.all(np.abs(dev[free] - eps) <= slack)
        assert np.all(dev[bound] >= eps - slack)
        assert np.all(dev[coef == 0] <= eps + slack)
        # a fit where no multiplier moves keeps one support vector of coef
        # 0, and reloads as a model of the same columns
        X, y = self.tube()
        m = fit_svr(X, y, C=1.0, epsilon=0.5, kernel="linear")
        assert m.hyperparams["iterations"] == 0
        assert m.support_vectors.shape == (1, 1) and m.coef.tolist() == [0.0]
        save_model(m, path)
        assert np.array_equal(load_model(path).predict(X), m.predict(X))

    def test_linear_kernel_short_of_its_gap_at_the_cap(self):
        # a linear kernel with p < n and C = 10 is slow for SMO: its KKT
        # gap is still 0.25 after 2,000 steps, 0.076 after 40,000 and
        # 3.0e-3 after 400,000
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 20))
        y = X @ rng.normal(size=20) + 0.1 * rng.normal(size=200)
        hp = fit_svr(X, y, C=10.0, epsilon=0.1, kernel="linear",
                     max_iter=2000).hyperparams
        assert hp["converged"] is False and hp["gap"] > hp["tol"]
        assert hp["iterations"] == hp["max_iter"]

    @pytest.mark.parametrize("bad, match", [
        ({"max_iter": 0}, "max_iter must be >= 1"),
        ({"tol": -1e-6}, "tol must be >= 0"),
    ])
    def test_rejects_bad_stop_settings(self, bad, match):
        X = np.arange(8, dtype=float).reshape(-1, 1)
        with pytest.raises(ModelError, match=match):
            fit_svr(X, 2.0 * X[:, 0], **bad)

    def test_records_a_stop_on_tol(self):
        # the fixture of test_fits_linear_trend takes one step; the tube's
        # targets are optimal at coef 0, so it takes none
        rng = np.random.default_rng(11)
        X = rng.uniform(-2, 2, size=(60, 1))
        hp = fit_svr(X, 3.0 * X[:, 0] + 1.0, C=10.0, epsilon=0.05,
                     kernel="linear", max_iter=4000).hyperparams
        assert hp["converged"] is True
        assert 0 < hp["iterations"] < hp["max_iter"]
        hp = fit_svr(*self.tube(), C=1.0, epsilon=0.5,
                     kernel="linear").hyperparams
        assert hp["converged"] is True and hp["iterations"] == 0

    def test_records_a_stop_at_the_cap(self):
        # the planar fixture takes 730 steps to converge
        X, y = self.planar()
        hp = fit_svr(X, y, C=5.0, epsilon=0.01, kernel="rbf", gamma=0.5,
                     max_iter=10).hyperparams
        assert hp["converged"] is False and hp["gap"] > hp["tol"]
        assert hp["iterations"] == hp["max_iter"] == 10

    def test_rejects_non_finite_input(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(10, 3))
        y = X[:, 0].copy()
        X[4, 1] = np.nan
        with pytest.raises(ModelError, match="non-finite"):
            fit_svr(X, y)
        with pytest.raises(ModelError, match="non-finite"):
            fit_svr(np.nan_to_num(X), np.where(np.arange(10) == 2, -np.inf, y))


class TestForest:
    def make_data(self, seed=13):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 5))
        y = X[:, 0] + 2 * (X[:, 1] > 0) + 0.1 * rng.normal(size=80)
        return X, y

    def test_identity_sampler_reduces_to_bagged_trees(self):
        # full-data rows and all features: every tree equals a plain CART
        X, y = self.make_data()

        def identity(rng, n, m):
            return np.arange(n)

        m = fit_forest(X, y, n_trees=3, max_depth=3, seed=0,
                       row_sampler=identity)
        single = fit_cart(X, y, max_depth=3)
        for tree in m.trees:
            assert np.allclose(tree.predict(X), single.predict(X))

    def test_classification_majority_vote(self):
        rng = np.random.default_rng(14)
        X = np.vstack([rng.normal(-2, 0.3, (30, 2)), rng.normal(2, 0.3, (30, 2))])
        y = np.array([0] * 30 + [1] * 30)
        m = fit_forest(X, y, n_trees=15, max_depth=3, task="classification",
                       seed=0)
        assert np.mean(m.predict(X) == y) > 0.95
        scores = m.predict_scores(X)
        assert np.allclose(scores.sum(axis=1), 1.0)

    def test_nodes_draw_their_own_columns(self):
        # one column per node: a tree still splits on several columns
        X, y = self.make_data()
        m = fit_forest(X, y, n_trees=5, k_features=1, max_depth=4, seed=0)
        for tree in m.trees:
            used, stack = set(), [tree.root]
            while stack:
                node = stack.pop()
                if not node["leaf"]:
                    used.add(node["feature"])
                    stack += [node["left"], node["right"]]
            assert len(used) > 1

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_checks_its_input_once_and_matches_its_trees(self, task,
                                                         monkeypatch):
        X, y = self.make_data()
        if task == "classification":
            y = (y > 1).astype(int) + (y > 2)
        m = fit_forest(X, y, n_trees=6, k_features=2, max_depth=4, seed=1,
                       task=task)
        votes = np.array([tree.predict(X) for tree in m.trees])
        calls = []
        check = Model._check_input
        monkeypatch.setattr(Model, "_check_input",
                            lambda self, X: calls.append(self) or check(self, X))
        if task == "regression":
            total = np.zeros(len(X))
            for v in votes:
                total += v
            assert np.array_equal(m.predict(X), total / len(m.trees))
            assert calls == [m]
        else:
            counts = np.eye(m.n_classes)[votes].sum(axis=0)
            assert np.array_equal(m.predict(X), np.argmax(counts, axis=1))
            assert m.predict(X).dtype == np.int64
            assert np.array_equal(m.predict_scores(X), counts / len(m.trees))
            assert calls == [m, m, m]

    def test_bad_dimensions(self):
        X, y = self.make_data()
        with pytest.raises(ModelError):
            fit_forest(X, y, n_trees=2, k_features=99)

    def test_rejects_non_finite_input(self):
        X, y = self.make_data()
        X[3, 1] = -np.inf
        with pytest.raises(ModelError, match="non-finite"):
            fit_forest(X, y, n_trees=2)
        with pytest.raises(ModelError, match="non-finite"):
            fit_forest(self.make_data()[0], np.where(y > 0, np.nan, 0.0),
                       n_trees=2, task="classification")


class TestGBT:
    def test_leaf_weight_fixture(self):
        # targets {1, 3} from score 0: g = (-1, -3), G = -4, H = 2, lambda = 1
        assert _leaf_weight(-4.0, 2.0, 1.0) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_split_gain_prefers_informative_feature(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(100, 3))
        y = 5.0 * (X[:, 1] > 0)
        m = fit_gbt(X, y, n_rounds=1, learning_rate=1.0, lam=0.0, max_depth=1)
        assert m.trees[0]["feature"] == 1

    def test_squared_loss_converges(self):
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(150, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        m = fit_gbt(X, y, n_rounds=80, learning_rate=0.3, max_depth=3)
        assert float(np.mean((m.predict(X) - y) ** 2)) < 0.01

    def test_base_score_is_mean_and_log_odds(self):
        y = np.array([1.0, 3.0])
        m = fit_gbt(np.zeros((2, 1)), y, n_rounds=1)
        assert m.base_score == pytest.approx(2.0)
        yb = np.array([0, 0, 0, 1])
        mb = fit_gbt(np.arange(4, dtype=float).reshape(-1, 1), yb,
                     n_rounds=1, loss="logistic")
        assert mb.base_score == pytest.approx(np.log(0.25 / 0.75))

    def test_logistic_probabilities(self):
        rng = np.random.default_rng(17)
        X = np.vstack([rng.normal(-1, 0.4, (40, 1)), rng.normal(1, 0.4, (40, 1))])
        y = np.array([0] * 40 + [1] * 40)
        m = fit_gbt(X, y, n_rounds=30, learning_rate=0.3, max_depth=2,
                    loss="logistic")
        p = m.predict_proba(X)
        assert np.all((p > 0) & (p < 1))
        assert np.mean(m.predict(X) == y) > 0.95

    def test_gamma_penalty_prunes(self):
        rng = np.random.default_rng(18)
        X = rng.normal(size=(50, 2))
        y = 0.01 * rng.normal(size=50)  # almost no structure

        def count(node):
            return 1 if node["leaf"] else count(node["left"]) + count(node["right"])

        free = fit_gbt(X, y, n_rounds=1, gamma_pen=0.0, max_depth=4)
        taxed = fit_gbt(X, y, n_rounds=1, gamma_pen=10.0, max_depth=4)
        assert count(taxed.trees[0]) <= count(free.trees[0])

    def test_rejects_non_finite_input(self):
        X, y = np.arange(6, dtype=float).reshape(-1, 1), np.arange(6.0)
        with pytest.raises(ModelError, match="non-finite"):
            fit_gbt(np.where(X == 2, np.nan, X), y)
        with pytest.raises(ModelError, match="non-finite"):
            fit_gbt(X, np.where(y == 2, np.inf, y % 2), loss="logistic")

    def test_zero_hessian_with_zero_lam_raises_model_error(self):
        # the probabilities saturate to 0 and 1, so a node's H is exactly 0
        X = [[-0.8, 1.6], [-1.1, -0.3], [0.5, 1.0], [0.6, 1.3], [-0.1, 1.2]]
        with np.errstate(divide="ignore"), pytest.raises(ModelError,
                                                         match="hessian"):
            fit_gbt(X, [1, 0, 1, 1, 0], n_rounds=53, lam=0.0, loss="logistic",
                    learning_rate=1.0, max_depth=1, min_leaf=1)

    def test_rejects_negative_lam(self):
        with pytest.raises(ModelError, match="lam"):
            fit_gbt(np.arange(4.0).reshape(-1, 1), np.arange(4.0), lam=-0.5)


# ------------------------------------------------------ split finder ----
# A per-column search one node at a time: every node copies its rows and
# sorts each column again. Gini counts cumulate along the sorted rows; a
# float criterion sums each distinct value's targets in row order, then
# cumulates over the values, as the binned grower does. Node totals are
# np.sum over the node's rows. Fitted trees and their predictions must
# match it bit for bit.

def _ref_value_cumsum(xj, v):
    """Per row, the cumulative sum of v up to and including the row's
    value of xj: the sums of the distinct values in row order, cumulated
    over the sorted values."""
    inv = np.unique(xj, return_inverse=True)[1]
    return np.cumsum(np.bincount(inv, weights=v))[inv]


def _ref_cart_split(X, y, min_leaf, n_classes):
    n = len(y)
    best = None
    if n_classes is not None:
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), y.astype(np.int64)] = 1.0
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        pos = np.arange(1, n)
        if n_classes is None:
            cum = _ref_value_cumsum(xj, y)[order][:-1]
            total = float(np.sum(y))
            decrease = (cum ** 2 / pos + (total - cum) ** 2 / (n - pos)
                        - total ** 2 / n)
        else:
            cum = np.cumsum(onehot[order], axis=0)[:-1]
            total = cum[-1] + onehot[order][-1]
            left = np.sum(cum ** 2, axis=1) / pos
            right = np.sum((total[None, :] - cum) ** 2, axis=1) / (n - pos)
            decrease = left + right - float(np.sum(total ** 2)) / n
        ok = valid & (pos >= min_leaf) & ((n - pos) >= min_leaf)
        if not ok.any():
            continue
        decrease = np.where(ok, decrease, -np.inf)
        k = int(np.argmax(decrease))
        if decrease[k] > 1e-12 and (best is None or decrease[k] > best[0]):
            best = (float(decrease[k]), j, float((xs[k] + xs[k + 1]) / 2))
    return best


def _ref_cart_leaf(y, n_classes):
    if n_classes is None:
        return {"leaf": True, "value": float(np.mean(y)), "n": len(y)}
    counts = np.bincount(y.astype(np.int64), minlength=n_classes)
    return {"leaf": True, "value": int(np.argmax(counts)),
            "probs": (counts / counts.sum()).tolist(), "n": len(y)}


def _ref_cart_grow(X, y, depth, max_depth, min_leaf, n_classes):
    if depth >= max_depth or len(y) < 2 * min_leaf or len(np.unique(y)) == 1:
        return _ref_cart_leaf(y, n_classes)
    split = _ref_cart_split(X, y, min_leaf, n_classes)
    if split is None:
        return _ref_cart_leaf(y, n_classes)
    _, j, thr = split
    mask = X[:, j] <= thr
    return {"leaf": False, "feature": int(j), "threshold": thr, "n": len(y),
            "left": _ref_cart_grow(X[mask], y[mask], depth + 1, max_depth,
                                   min_leaf, n_classes),
            "right": _ref_cart_grow(X[~mask], y[~mask], depth + 1, max_depth,
                                    min_leaf, n_classes)}


def _ref_gbt_grow(X, g, h, depth, max_depth, min_leaf, lam, gamma_pen):
    n = len(g)
    G, H = float(np.sum(g)), float(np.sum(h))
    leaf = {"leaf": True, "value": _leaf_weight(G, H, lam), "n": n}
    if depth >= max_depth or n < 2 * min_leaf:
        return leaf
    best = None
    for j in range(X.shape[1]):
        xj = X[:, j]
        order = np.argsort(xj, kind="stable")
        xs = xj[order]
        valid = xs[:-1] < xs[1:]
        if not valid.any():
            continue
        gl = _ref_value_cumsum(xj, g)[order][:-1]
        hl = _ref_value_cumsum(xj, h)[order][:-1]
        pos = np.arange(1, n)
        # a row inside a run of its value holds its value's sums, which can
        # leave nothing on the right; ok masks it out
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = 0.5 * (gl ** 2 / (hl + lam) + (G - gl) ** 2 / (H - hl + lam)
                          - G ** 2 / (H + lam)) - gamma_pen
        ok = valid & (pos >= min_leaf) & ((n - pos) >= min_leaf)
        gain = np.where(ok, gain, -np.inf)
        k = int(np.argmax(gain))
        if gain[k] > 1e-12 and (best is None or gain[k] > best[0]):
            best = (float(gain[k]), j, float((xs[k] + xs[k + 1]) / 2))
    if best is None:
        return leaf
    _, j, thr = best
    mask = X[:, j] <= thr
    return {"leaf": False, "feature": int(j), "threshold": thr, "n": n,
            "left": _ref_gbt_grow(X[mask], g[mask], h[mask], depth + 1,
                                  max_depth, min_leaf, lam, gamma_pen),
            "right": _ref_gbt_grow(X[~mask], g[~mask], h[~mask], depth + 1,
                                   max_depth, min_leaf, lam, gamma_pen)}


def _ref_values(root, X, key="value"):
    return np.array([tree_predict_row(root, x)[key] for x in X])


def _ref_gbt_trees(X, y, n_rounds, learning_rate, lam, gamma_pen, max_depth,
                   min_leaf, loss, base):
    raw = np.full(len(y), base)
    trees = []
    for _ in range(n_rounds):
        if loss == "squared":
            g, h = raw - y, np.ones_like(y)
        else:
            prob = 1.0 / (1.0 + np.exp(-raw))
            g, h = prob - y, prob * (1.0 - prob)
        trees.append(_ref_gbt_grow(X, g, h, 0, max_depth, min_leaf, lam,
                                   gamma_pen))
        raw += learning_rate * _ref_values(trees[-1], X)
    return trees


def _ref_forest_tree(X, y, rng, k, max_depth, min_leaf, n_classes):
    """A forest tree on the rows X, y, level by level: each node of a level,
    in turn (each node's left child, then its right, after the children of
    the nodes before it), that is searched draws p uniforms from rng and
    searches the sorted columns of the k smallest."""
    p = X.shape[1]
    root = {}
    level = [(root, np.arange(len(y)))]
    for depth in range(max_depth + 1):
        children = []
        for node, idx in level:
            yn = y[idx]
            if (depth >= max_depth or len(yn) < 2 * min_leaf
                    or len(np.unique(yn)) == 1):
                node.update(_ref_cart_leaf(yn, n_classes))
                continue
            cols = np.sort(np.argsort(rng.random(p))[:k])
            split = _ref_cart_split(X[np.ix_(idx, cols)], yn, min_leaf,
                                    n_classes)
            if split is None:
                node.update(_ref_cart_leaf(yn, n_classes))
                continue
            _, j, thr = split
            mask = X[idx, cols[j]] <= thr
            left, right = {}, {}
            node.update({"leaf": False, "feature": int(cols[j]),
                         "threshold": thr, "n": len(yn), "left": left,
                         "right": right})
            children += [(left, idx[mask]), (right, idx[~mask])]
        level = children
    return root


def _ref_forest(X, y, n_trees, k, max_depth, min_leaf, n_classes, seed):
    """The roots of fit_forest's trees, each grown by _ref_forest_tree on
    its bootstrap rows, in the order drawn, from the RNG of (seed, t)."""
    roots = []
    for t in range(n_trees):
        rng = _tree_rng(seed, t)
        rows = rng.integers(0, len(y), size=len(y))
        roots.append(_ref_forest_tree(X[rows], y[rows], rng, k, max_depth,
                                      min_leaf, n_classes))
    return roots


def _split_case(case, seed):
    """(X, regression target, class labels, min_leaf, unseen rows)."""
    rng = np.random.default_rng(seed)
    n, min_leaf = {"ties": (200, 1), "constant": (40, 2), "n2": (2, 1),
                   "big_min_leaf": (9, 5), "bootstrap": (50, 3),
                   "wide": (150, 1)}[case]
    X = np.column_stack([rng.integers(0, 3, size=n).astype(float),
                         rng.normal(size=n),
                         np.round(rng.normal(size=n), 1),
                         rng.integers(0, 6, size=n).astype(float)])
    if case == "wide":  # many columns with near-equal best gains
        X = np.column_stack([X] + [rng.integers(0, 4, size=n) * 0.5
                                   for _ in range(16)])
    if case == "constant":
        X[:, 1] = 4.0
        X[:, 3] = -1.0
    if case == "bootstrap":
        X = X[rng.integers(0, n, size=n)]  # duplicate rows
    # targets spread over orders of magnitude, so that the order of a
    # cumulative sum shows in its last bits
    y = X[:, 0] * 2 + rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)
    labels = rng.integers(0, 3, size=n)
    Xt = np.vstack([X, rng.normal(size=(20, X.shape[1])) * 2])
    return X, y, labels, min_leaf, Xt


def _same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


SPLIT_CASES = ["ties", "constant", "n2", "big_min_leaf", "bootstrap", "wide"]


class TestPresortedSplitFinder:
    @pytest.mark.parametrize("case", SPLIT_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cart_matches_reference(self, case, seed):
        X, y, labels, min_leaf, Xt = _split_case(case, seed)
        m = fit_cart(X, y, max_depth=6, min_leaf=min_leaf)
        ref = _ref_cart_grow(X, y, 0, 6, min_leaf, None)
        assert m.root == ref
        assert _same_bits(m.predict(Xt), _ref_values(ref, Xt))
        m = fit_cart(X, labels, max_depth=6, min_leaf=min_leaf,
                     task="classification", n_classes=3)
        ref = _ref_cart_grow(X, labels, 0, 6, min_leaf, 3)
        assert m.root == ref
        assert _same_bits(m.predict(Xt), _ref_values(ref, Xt).astype(np.int64))
        assert _same_bits(m.predict_scores(Xt), _ref_values(ref, Xt, "probs"))

    @pytest.mark.parametrize("case", SPLIT_CASES)
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    @pytest.mark.parametrize("lam,gamma_pen", [(1.0, 0.0), (0.0, 0.5)])
    def test_gbt_matches_reference(self, case, loss, lam, gamma_pen):
        X, y, labels, min_leaf, Xt = _split_case(case, 3)
        target = y if loss == "squared" else (labels == 1).astype(float)
        m = fit_gbt(X, target, n_rounds=6, learning_rate=0.3, lam=lam,
                    gamma_pen=gamma_pen, max_depth=3, min_leaf=min_leaf,
                    loss=loss)
        ref = _ref_gbt_trees(X, target, 6, 0.3, lam, gamma_pen, 3, min_leaf,
                             loss, m.base_score)
        assert m.trees == ref
        raw = np.full(len(Xt), m.base_score)
        for root in ref:
            raw += 0.3 * _ref_values(root, Xt)
        assert _same_bits(m.predict_raw(Xt), raw)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_forest_trees_match_reference(self, task):
        X, y, labels, _, Xt = _split_case("ties", 4)
        target = y if task == "regression" else labels
        m = fit_forest(X, target, n_trees=4, k_features=2, max_depth=5,
                       task=task, seed=9)
        n_classes = None if task == "regression" else 3
        refs = _ref_forest(X, target, 4, 2, 5, 1, n_classes, 9)
        for tree, ref in zip(m.trees, refs):
            assert tree.root == ref
            assert _same_bits(tree.predict(Xt).astype(np.float64),
                              _ref_values(ref, Xt).astype(np.float64))

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_forest_of_every_column_is_cart_on_bootstrap_rows(self, task):
        X, y, labels, _, _ = _split_case("wide", 5)
        target = y if task == "regression" else labels
        drawn = []

        def sampler(rng, n, m):
            drawn.append(rng.integers(0, n, size=m))
            return drawn[-1]

        m = fit_forest(X, target, n_trees=5, k_features=X.shape[1],
                       max_depth=6, min_leaf=2, task=task, seed=2,
                       row_sampler=sampler)
        n_classes = None if task == "regression" else 3
        for tree, rows in zip(m.trees, drawn):
            assert tree.root == _ref_cart_grow(X[rows], target[rows], 0, 6, 2,
                                               n_classes)


class TestLevelwiseGrower:
    """The grower at the grid's own sizes and on generated matrices, against
    the one-node-at-a-time references above."""

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_grid_sized_forest_matches_reference(self, task):
        # a grid fold: 120 rows x 51 columns of small counts, so that most
        # columns tie; the forest of the grid's defaults
        rng = np.random.default_rng(21)
        X = rng.poisson(0.6, size=(120, 51)).astype(float)
        X[:, 7] = 2.0
        y = X[:, 0] - X[:, 3] + rng.normal(size=120) * 10.0 ** rng.integers(
            -3, 3, size=120)
        target = y if task == "regression" else rng.integers(0, 5, size=120)
        m = fit_forest(X, target, n_trees=25, k_features=7, max_depth=10,
                       min_leaf=2, task=task, seed=3)
        n_classes = None if task == "regression" else 5
        refs = _ref_forest(X, target, 25, 7, 10, 2, n_classes, 3)
        assert [tree.root for tree in m.trees] == refs

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 32 - 1),
           st.integers(min_value=2, max_value=40),
           st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=4))
    def test_generated_matrices_match_reference(self, seed, n, p, min_leaf):
        rng = np.random.default_rng(seed)
        min_leaf = min(min_leaf, n)  # fewer rows than min_leaf is an error
        X = rng.integers(0, 3, size=(n, p)) * 0.5  # tied values
        X[:, rng.integers(0, p)] = 1.5  # a constant column
        y = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3, size=n)
        labels = rng.integers(0, 3, size=n)
        m = fit_cart(X, y, max_depth=4, min_leaf=min_leaf)
        assert m.root == _ref_cart_grow(X, y, 0, 4, min_leaf, None)
        m = fit_cart(X, labels, max_depth=4, min_leaf=min_leaf,
                     task="classification", n_classes=3)
        assert m.root == _ref_cart_grow(X, labels, 0, 4, min_leaf, 3)
        m = fit_gbt(X, y, n_rounds=3, max_depth=3, min_leaf=min_leaf)
        assert m.trees == _ref_gbt_trees(X, y, 3, 0.3, 1.0, 0.0, 3, min_leaf,
                                         "squared", m.base_score)
        binary = (labels == 1).astype(float)
        m = fit_gbt(X, binary, n_rounds=3, max_depth=3, min_leaf=min_leaf,
                    loss="logistic")
        assert m.trees == _ref_gbt_trees(X, binary, 3, 0.3, 1.0, 0.0, 3,
                                         min_leaf, "logistic", m.base_score)

    def test_segment_sums_equal_numpy_sums(self):
        # lengths across the eight-wide blocks, past NumPy's pairwise block
        # of 128 and around 8192, values over many orders of magnitude
        rng = np.random.default_rng(5)
        n = np.concatenate([np.arange(1, 300), rng.integers(1, 300, size=40),
                            [8191, 8192, 8193, 20000]])
        a = rng.normal(size=n.sum()) * 10.0 ** rng.integers(-8, 9,
                                                             size=n.sum())
        runs = np.split(a, n.cumsum()[:-1])
        assert _same_bits(segment_sums(a, n),
                          np.array([np.sum(run) for run in runs]))
        # a non-contiguous subset of nodes, as leaves(which) passes them
        asc = rng.permutation(len(a))
        start = n.cumsum() - n
        which = np.concatenate([np.arange(1, len(n), 3), [len(n) - 1]])
        values = [a, -a[::-1].copy()]
        want = np.array([[np.sum(v[asc[s:s + k]]) for s, k
                          in zip(start[which], n[which])] for v in values])
        assert _same_bits(node_sums(values, asc, start[which], n[which]),
                          want)


    def test_segment_cumsums_equal_numpy_cumsums(self):
        rng = np.random.default_rng(6)
        n = np.concatenate([[560, 1, 1, 300], rng.integers(1, 40, size=200)])
        a = rng.normal(size=(2, n.sum())) * 10.0 ** rng.integers(
            -8, 9, size=n.sum())
        runs = np.split(a, n.cumsum()[:-1], axis=1)
        assert _same_bits(segment_cumsums(a, n),
                          np.concatenate([np.cumsum(r, axis=1) for r in runs],
                                         axis=1).T)

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 30), min_size=1, max_size=40),
           st.integers(0, 40), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_int_cumsums_equal_numpy_cumsums(self, runs, at, arrays, seed):
        runs.insert(at % (len(runs) + 1), 1)  # a run of one value
        runs = np.array(runs)
        values = np.random.default_rng(seed).integers(
            -10 ** 6, 10 ** 6, size=(arrays, runs.sum()))
        want = np.concatenate(
            [np.cumsum(r, axis=1)
             for r in np.split(values, runs.cumsum()[:-1], axis=1)], axis=1)
        assert _same_bits(int_cumsums(values, runs), want)
        assert _same_bits(int_cumsums(values[0], runs), want[0])


class TestJointBoosting:
    PARAMS = {"n_rounds": 8, "learning_rate": 0.3, "lam": 1.0,
              "max_depth": 3, "min_leaf": 2}

    @pytest.mark.parametrize("absent", [None, 3])
    def test_joint_fit_equals_separate_fits(self, absent):
        rng = np.random.default_rng(8)
        X = rng.poisson(0.8, size=(90, 12)).astype(float)
        y = rng.integers(0, 5, size=90)
        if absent is not None:
            y[y == absent] = 0
        Xt = rng.poisson(0.8, size=(30, 12)).astype(float)
        cfg = merge_config({"gbt": self.PARAMS})
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            joint = fit_family("gbt", X, y, "classification", 5, cfg, 0)
            separate = one_vs_rest(
                partial(fit_gbt, loss="logistic", **self.PARAMS), X, y,
                n_classes=5)
        assert joint.params_dict() == separate.params_dict()
        assert _same_bits(joint.predict_scores(Xt),
                          separate.predict_scores(Xt))
        messages = [str(w.message) for w in seen]
        if absent is None:
            assert not messages
        else:
            assert isinstance(joint.members[absent], ConstantScoreModel)
            absent_warning = "class %d absent from training data" % absent
            assert sum(absent_warning in msg for msg in messages) == 2

    @staticmethod
    def _prefix_case(loss):
        """Poisson and normal columns with a duplicate, so splits tie, and a
        target of the loss."""
        rng = np.random.default_rng(9)
        X = np.column_stack([rng.poisson(0.8, size=(70, 6)),
                             rng.normal(size=(70, 5))])
        X[:, 3] = X[:, 1]
        y = X[:, 0] - X[:, 7] + 0.5 * rng.normal(size=70)
        return X, (y if loss == "squared" else (y > 0.3).astype(np.int64))

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_column_prefixes_equal_fits_on_the_prefix(self, loss):
        X, y = self._prefix_case(loss)
        ms = [1, 2, 4, 4, 7, X.shape[1]]
        batch = fit_gbts(X, [y] * len(ms), loss=loss, n_cols=ms, **self.PARAMS)
        for m, model in zip(ms, batch):
            solo = fit_gbt(X[:, :m], y, loss=loss, **self.PARAMS)
            assert model.trees == solo.trees
            assert model.base_score == solo.base_score
            assert model.hyperparams == solo.hyperparams

    def test_column_prefixes_of_one_vs_rest_equal_fits_on_the_prefix(self):
        X, y = self._prefix_case("squared")
        y = np.searchsorted(np.quantile(y, [0.25, 0.5, 0.75]), y)
        cfg = merge_config({"gbt": self.PARAMS})
        ms = [1, 3, 3, X.shape[1]]
        batch = fit_family("gbt", X, y, "classification", 4, cfg, 0, n_cols=ms)
        for m, model in zip(ms, batch):
            solo = fit_family("gbt", X[:, :m], y, "classification", 4, cfg, 0)
            assert model.params_dict() == solo.params_dict()

    @pytest.mark.parametrize("n_cols", [[0, 2], [2, 13], [2]])
    def test_column_counts_out_of_range_are_rejected(self, n_cols):
        X, y = self._prefix_case("squared")
        with pytest.raises(ModelError, match="n_cols"):
            fit_gbts(X, [y, y], n_rounds=2, n_cols=n_cols)

    def test_only_joint_families_fit_column_prefixes(self):
        X, y = self._prefix_case("squared")
        with pytest.raises(ValueError, match="column prefixes"):
            fit_family("cart", X, y, "regression", 5, merge_config({}), 0,
                       n_cols=[1, 2])


class TestJointOneVsRest:
    """The grid's logistic and SVM one-vs-rest fit every class in one call
    (fit_logistics; fit_svms on one kernel matrix), each member equal to
    its own fit bit for bit."""

    SETTINGS = {"svm": {"C": 1.0, "gamma": 0.05, "tol": 1e-3},
                "logistic": {"lr": 0.5, "epochs": 40}}
    FITS = {"svm": ("svm", fit_svm, "pm1"),
            "linear": ("logistic", fit_logistic, "01")}

    @staticmethod
    def _case(absent=None):
        """Four classes on eight columns, class 0 taking any absent one."""
        rng = np.random.default_rng(21)
        y = rng.integers(0, 4, size=90)
        X = rng.normal(size=(90, 8))
        X[:, 0] += y
        X[:, 3] -= 0.5 * y
        if absent is not None:
            y[y == absent] = 0
        return X, y

    def _fits(self, family, X, y, kernel="rbf"):
        """fit_family's ensemble and one_vs_rest's over member fits."""
        section, fit, labels = self.FITS[family]
        cfg = merge_config(self.SETTINGS)
        cfg["svm"]["kernel"] = kernel
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return (fit_family(family, X, y, "classification", 4, cfg, 0),
                    one_vs_rest(partial(fit_standardized, fit, **cfg[section]),
                                X, y, n_classes=4, labels=labels))

    @pytest.mark.parametrize("family, kernel", [
        ("svm", "linear"), ("svm", "rbf"), ("linear", None)])
    @pytest.mark.parametrize("absent", [None, 2])
    def test_joint_fit_equals_member_fits(self, family, kernel, absent):
        X, y = self._case(absent)
        joint, members = self._fits(family, X, y, kernel)
        assert joint.params_dict() == members.params_dict()
        for a, b in zip(joint.members, members.members):
            assert a.hyperparams == b.hyperparams
            assert type(a) is type(b)
        if absent is not None:
            assert isinstance(joint.members[absent], ConstantScoreModel)
        assert _same_bits(joint.predict_scores(X), members.predict_scores(X))

    def test_a_member_at_its_cap_leaves_the_others_converging(
            self, monkeypatch):
        # one step per row: the noisy targets stop at the cap, 120 steps
        # in, and the target of three far rows converges long before
        monkeypatch.setattr(svm, "SMO_STEPS_PER_ROW", 1)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 20))
        hard = np.where(X[:, 0] + 0.8 * rng.normal(size=120) > 0, 1, -1)
        easy = np.where(np.arange(120) < 3, 1, -1)
        X[:3] += 4.0
        targets = [hard, easy, -hard]
        joint = fit_svms(X, targets, kernel="linear")
        alone = [fit_svm(X, t, kernel="linear") for t in targets]
        stops = [(m.hyperparams["iterations"], m.hyperparams["converged"])
                 for m in joint]
        assert stops[0] == stops[2] == (120, False)
        assert stops[1][0] < 120 and stops[1][1] is True
        for a, b in zip(joint, alone):
            assert a.params_dict() == b.params_dict()
            assert a.hyperparams == b.hyperparams

    @pytest.mark.parametrize("family", ["svm", "linear"])
    def test_column_prefixes_equal_fits_on_a_fancy_indexed_prefix(
            self, family):
        # the grid's columns: a fancy-indexed prefix of the mRMR order,
        # whose memory layout the standardizer's means depend on
        X, y = self._case()
        idx = np.array([5, 0, 7, 2, 3, 1, 6, 4])
        cfg = merge_config(self.SETTINGS)
        ms = [1, 3, 3, 6]
        batch = fit_family(family, X[:, idx[:max(ms)]], y, "classification",
                           4, cfg, 0, n_cols=ms)
        assert len(batch) == len(ms)
        for m, model in zip(ms, batch):
            solo = fit_family(family, X[:, idx[:m]], y, "classification", 4,
                              cfg, 0)
            assert model.params_dict() == solo.params_dict()

    @pytest.mark.parametrize("n_cols", [[0, 2], [2, 9]])
    def test_column_counts_out_of_range_are_rejected(self, n_cols):
        X, y = self._case()
        with pytest.raises(ModelError, match="n_cols"):
            fit_family("svm", X, y, "classification", 4,
                       merge_config(self.SETTINGS), 0, n_cols=n_cols)

    @pytest.mark.parametrize("family", ["svm", "linear"])
    def test_model_scores_are_predict_and_predict_scores(self, family):
        X, y = self._case(absent=1)
        model, _ = self._fits(family, X, y)
        pred, scores = model_scores(model, X, "classification")
        assert _same_bits(pred, model.predict(X))
        assert _same_bits(scores, model.predict_scores(X))


class TestBinNumbering:
    """A level numbers its occurring bins through a table of every bin or
    by sorting the entries' keys; both give the same trees."""

    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("family", ["cart", "forest", "gbt"])
    def test_table_and_sort_grow_the_same_trees(self, monkeypatch, family,
                                                task):
        rng = np.random.default_rng(17)
        X = np.column_stack([rng.normal(size=(80, 6)),
                             rng.poisson(1.0, size=(80, 3))])
        y = X[:, 0] - X[:, 7] + 0.3 * rng.normal(size=80)
        if task == "classification":
            y = np.searchsorted(np.quantile(y, [1 / 3, 2 / 3]), y)
        cfg = merge_config({"gbt": {"n_rounds": 4}, "forest": {"n_trees": 4}})
        sorted_ = []  # whether each plan with entries sorted its keys
        init = tree._Plan.__init__

        def spy(self, *args):
            init(self, *args)
            if len(self.key):
                sorted_.append(self.taken is None)
        monkeypatch.setattr(tree._Plan, "__init__", spy)
        fits = {}
        for path, bound in (("sort", 0), ("table", 1 << 40)):
            monkeypatch.setattr(tree, "TABLE_BINS_PER_ENTRY", bound)
            monkeypatch.setattr(tree, "TABLE_BINS_MIN", bound)
            sorted_.clear()
            fits[path] = fit_family(family, X, y, task, 3, cfg, 0).params_dict()
            assert sorted_ and all(s == (path == "sort") for s in sorted_)
        assert fits["sort"] == fits["table"]


class TestLevelPlans:
    """grow plans each level's search, scores it and drops the plan;
    fit_gbts plans its roots once and hands that plan to every round."""

    @staticmethod
    def _spy(monkeypatch):
        """Weak references to the plans built, in order, each with the
        count of earlier plans still alive when it was built."""
        built = []
        init = tree._Plan.__init__

        def spy(self, *args):
            alive = sum(ref() is not None for ref, _ in built)
            init(self, *args)
            built.append((weakref.ref(self), alive))
        monkeypatch.setattr(tree._Plan, "__init__", spy)
        return built

    @staticmethod
    def _none_alive(built):
        gc.collect()
        return all(ref() is None for ref, _ in built)

    @staticmethod
    def _case():
        rng = np.random.default_rng(12)
        X = np.column_stack([rng.poisson(0.8, size=(60, 5)),
                             rng.normal(size=(60, 4))])
        y = X[:, 0] - X[:, 6] + 0.5 * rng.normal(size=60)
        return X, y, np.searchsorted(np.quantile(y, [0.25, 0.5, 0.75]), y)

    @pytest.mark.parametrize("n_rounds", [1, 2, 9])
    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_boosting_plans_its_roots_once(self, monkeypatch, n_rounds, loss):
        X, y, tiers = self._case()
        targets = [y, -y] if loss == "squared" else [tiers == 0, tiers == 3]
        built = self._spy(monkeypatch)
        fit_gbts(X, targets, n_rounds=n_rounds, max_depth=1, loss=loss)
        assert len(built) == 1
        assert self._none_alive(built)

    def test_every_round_scores_the_first_rounds_root_plan(self, monkeypatch):
        X, y, _ = self._case()
        built = self._spy(monkeypatch)
        memos, grow = [], tree.grow

        def spy(*args):
            memo = args[-1]
            held = memo.get("roots")
            roots = grow(*args)
            memos.append((memo, held, memo["roots"]))
            return roots
        monkeypatch.setattr(gbt, "grow", spy)
        fit_gbts(X, [y, y ** 2], n_rounds=5, max_depth=3, min_leaf=2)
        memo, held, first = memos[0]
        assert len(memos) == 5 and held is None and first is built[0][0]()
        assert all(m is memo and h is first and p is first
                   for m, h, p in memos[1:])
        # below the roots, each level's plan is gone before the next one
        assert len(built) > 5 and all(alive <= 1 for _, alive in built)
        del memo, held, first, memos
        assert self._none_alive(built)

    def test_joint_one_vs_rest_plans_its_roots_once(self, monkeypatch):
        X, _, tiers = self._case()
        tiers[tiers == 2] = 1  # class 2 absent
        cfg = merge_config({"gbt": {"n_rounds": 6, "max_depth": 1}})
        built = self._spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            models = fit_family("gbt", X, tiers, "classification", 4, cfg, 0,
                                n_cols=[2, 5, X.shape[1]])
        assert len(models) == 3 and len(built) == 1
        assert self._none_alive(built)

    @pytest.mark.parametrize("fit", [
        partial(fit_cart, max_depth=4),
        partial(fit_cart, max_depth=4, task="classification"),
        partial(fit_forest, n_trees=4, max_depth=4, k_features=3),
        partial(fit_forest, n_trees=4, max_depth=4, k_features=3,
                task="classification")])
    def test_cart_and_forest_keep_no_plan(self, monkeypatch, fit):
        X, y, tiers = self._case()
        built = self._spy(monkeypatch)
        fit(X, y if fit.keywords.get("task") is None else tiers)
        assert len(built) == 4
        assert all(alive == 0 for _, alive in built)
        assert self._none_alive(built)


@pytest.mark.parametrize("task", ["regression", "classification"])
@pytest.mark.parametrize("family", ["linear", "mlp", "cart", "svm", "forest", "gbt"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_input(family, task, bad):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40) if task == "classification" else X[:, 0]
    cfg = merge_config({"gbt": {"n_rounds": 3}, "forest": {"n_trees": 3},
                        "mlp": {"epochs": 5}, "svr": {"max_iter": 50}})
    model = fit_family(family, X, y, task, 3, cfg, 0)
    Xt = X[:4].copy()
    Xt[2, 1] = bad
    calls = [model.predict] + ([model.predict_scores]
                               if task == "classification" else [])
    for call in calls:
        with pytest.raises(ModelError, match="non-finite"):
            call(Xt)


@pytest.mark.parametrize("package", ["dataprice.textrep", "dataprice.models"])
def test_export_lists_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
