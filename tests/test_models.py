import importlib

import numpy as np
import pytest

from dataprice.models import (ModelError, fit_cart, fit_forest, fit_gbt,
                              fit_linear, fit_logistic, fit_mlp, fit_svm,
                              fit_svr, kernel_matrix)
from dataprice.models import svm
from dataprice.models.gbt import _leaf_weight


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
        m = fit_svm(X, y, C=C, kernel="rbf", gamma=0.5, tol=tol, seed=0)
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
        y = np.array([0.01, -0.02, 0.015, 0.0])
        X = np.arange(4, dtype=float).reshape(-1, 1)
        m = fit_svr(X, y, C=1.0, epsilon=0.5, kernel="linear")
        assert np.all(epsilon_loss(m.predict(X) - y, 0.5) == 0.0)

    def test_epsilon_loss_values(self):
        assert epsilon_loss(np.array([0.3, -0.05, 1.1]), 0.1).tolist() == \
            pytest.approx([0.2, 0.0, 1.0])

    def test_sum_constraint_respected(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(30, 2))
        y = X[:, 0] - 2 * X[:, 1] + 0.01 * rng.normal(size=30)
        m = fit_svr(X, y, C=5.0, epsilon=0.01, kernel="rbf", gamma=0.5)
        assert abs(float(np.sum(m.coef))) < 1e-6

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

    def test_feature_subset_size(self):
        X, y = self.make_data()
        m = fit_forest(X, y, n_trees=5, k_features=2, max_depth=3, seed=0)
        assert all(len(fs) == 2 for fs in m.feature_subsets)

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
# The per-column search that the presorted finder replaced, copied as it
# was: every node copies its rows and sorts each column again. Fitted trees
# and their predictions must match it bit for bit.

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
            ys = y[order]
            cum = np.cumsum(ys)[:-1]
            total = float(np.sum(ys))
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
        gl = np.cumsum(g[order])[:-1]
        hl = np.cumsum(h[order])[:-1]
        pos = np.arange(1, n)
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
        drawn = []

        def sampler(rng, n, m):
            drawn.append(rng.integers(0, n, size=m))
            return drawn[-1]

        m = fit_forest(X, target, n_trees=4, k_features=2, max_depth=5,
                       task=task, seed=9, row_sampler=sampler)
        n_classes = None if task == "regression" else 3
        for tree, rows, feats in zip(m.trees, drawn, m.feature_subsets):
            sub = X[np.ix_(rows, feats)]
            ref = _ref_cart_grow(sub, target[rows], 0, 5, 1, n_classes)
            assert tree.root == ref
            assert _same_bits(tree.predict(Xt[:, feats]).astype(np.float64),
                              _ref_values(ref, Xt[:, feats]).astype(np.float64))


# ------------------------------------------------------------ SVR prox ----
# The prox that the breakpoint search replaced, copied as it was: 100
# bisection steps on the multiplier of the sum constraint.

def _ref_svr_prox(z, thr, C):
    def solve(nu):
        s = z - nu
        b = np.sign(s) * np.maximum(np.abs(s) - thr, 0.0)
        return np.clip(b, -C, C)

    lo, hi = z.min() - thr - C - 1.0, z.max() + thr + C + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if solve(mid).sum() > 0:
            lo = mid
        else:
            hi = mid
    return solve(0.5 * (lo + hi))


def _prox_cases():
    rng = np.random.default_rng(21)
    for i in range(400):
        n = int(rng.choice([1, 2, 3, 8, 40, 200]))
        C = float(rng.choice([1e-3, 0.1, 1.0, 50.0]))
        thr = 0.0 if i % 4 == 0 else float(10.0 ** rng.uniform(-4, 1))
        z = rng.normal(size=n) * 10.0 ** rng.uniform(-2, 2)
        if i % 3 == 0:  # ties among the z, so breakpoints coincide
            z = np.round(z)
        yield z, thr, C


class TestSVRProx:
    def test_matches_bisection_reference(self):
        worst = 0.0
        for z, thr, C in _prox_cases():
            diff = svm.svr_prox(z, thr, C) - _ref_svr_prox(z, thr, C)
            worst = max(worst, float(np.max(np.abs(diff))) / max(C, 1.0))
        assert worst < 1e-9

    def test_meets_sum_and_box(self):
        for z, thr, C in _prox_cases():
            b = svm.svr_prox(z, thr, C)
            scale = max(C, 1.0)
            assert abs(float(np.sum(b))) < 1e-9 * scale * len(z)
            assert np.all(np.abs(b) <= C)

    @pytest.mark.parametrize("case", ["trend", "tube", "rbf"])
    def test_fit_svr_matches_reference_solver(self, case, monkeypatch):
        # the fixtures of TestSVR
        rng = np.random.default_rng({"trend": 11, "tube": 0, "rbf": 12}[case])
        if case == "trend":
            X = rng.uniform(-2, 2, size=(60, 1))
            y = 3.0 * X[:, 0] + 1.0
            kw = dict(C=10.0, epsilon=0.05, kernel="linear", max_iter=4000)
        elif case == "tube":
            y = np.array([0.01, -0.02, 0.015, 0.0])
            X = np.arange(4, dtype=float).reshape(-1, 1)
            kw = dict(C=1.0, epsilon=0.5, kernel="linear")
        else:
            X = rng.normal(size=(30, 2))
            y = X[:, 0] - 2 * X[:, 1] + 0.01 * rng.normal(size=30)
            kw = dict(C=5.0, epsilon=0.01, kernel="rbf", gamma=0.5)
        Xt = np.vstack([X, X[:5] + 0.5])
        m = fit_svr(X, y, **kw)
        monkeypatch.setattr(svm, "svr_prox", _ref_svr_prox)
        ref = fit_svr(X, y, **kw)
        assert len(m.coef) == len(ref.coef)
        assert np.max(np.abs(m.predict(Xt) - ref.predict(Xt))) < 1e-9


@pytest.mark.parametrize("package", ["dataprice.textrep", "dataprice.models"])
def test_export_lists_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)
