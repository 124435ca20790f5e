import itertools
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataprice import explain
from dataprice.evaluate import fit_family, merge_config
from dataprice.explain import (ExplainError, _first_layer,
                               _first_layer_values, beeswarm_csv,
                               embedding_keywords, global_importance,
                               kernel_shap, shap_values, shapley_kernel_weight,
                               tree_expected, tree_shap)
from dataprice.models import (CARTModel, ConstantScoreModel, ForestModel,
                              GBTModel, LinearModel, LogisticModel, MLPModel,
                              OvREnsemble, StandardizedModel, SVMModel,
                              SVRModel, fit_cart, fit_forest, fit_gbt,
                              fit_linear, fit_logistic, fit_mlp,
                              fit_standardized, fit_svm, fit_svr, one_vs_rest)
from dataprice.models.linear import sigmoid
from dataprice.models.svm import rbf_in_place, sq_distances
from dataprice.textrep.word2vec import EmbeddingTable


# ------------------------------------------------------------ oracles --------

def coalition_value(node, x, present, leaf_value):
    """Model value when only the features in `present` are known: follow x
    at known splits, average both branches by cover otherwise."""
    if node["leaf"]:
        return leaf_value(node)
    j = node["feature"]
    if j in present:
        child = node["left"] if x[j] <= node["threshold"] else node["right"]
        return coalition_value(child, x, present, leaf_value)
    wl = node["left"]["n"] / node["n"]
    return (wl * coalition_value(node["left"], x, present, leaf_value)
            + (1 - wl) * coalition_value(node["right"], x, present, leaf_value))


def exhaustive_shapley(root, x, n_features, leaf_value):
    """Direct Shapley sum over every feature subset."""
    phi = np.zeros(n_features)
    for j in range(n_features):
        others = [f for f in range(n_features) if f != j]
        for r in range(n_features):
            for S in itertools.combinations(others, r):
                w = (math.factorial(r) * math.factorial(n_features - r - 1)
                     / math.factorial(n_features))
                with_j = coalition_value(root, x, set(S) | {j}, leaf_value)
                without = coalition_value(root, x, set(S), leaf_value)
                phi[j] += w * (with_j - without)
    return phi


def leaf_mean(node):
    return float(node["value"])


def make_data(seed=0, n=120, p=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    y = X[:, 0] + 2.0 * np.sign(X[:, 1])
    if p >= 4:
        y = y + 0.3 * X[:, 2] * X[:, 3]
    return X, y


# ------------------------------------------------------ tree attribution -----

class TestTreeShap:
    def test_local_accuracy_100_rows(self):
        X, y = make_data(0)
        model = fit_cart(X, y, max_depth=6)
        expected = tree_expected(model.root)
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(100, 4))
        preds = model.predict(pts)
        for i in range(100):
            phi = tree_shap(model.root, pts[i], 4)
            assert abs(phi.sum() + expected - preds[i]) < 1e-6

    def test_matches_exhaustive_subsets_regression(self):
        X, y = make_data(2, n=80)
        model = fit_cart(X, y, max_depth=4)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.normal(size=4)
            phi = tree_shap(model.root, x, 4)
            oracle = exhaustive_shapley(model.root, x, 4, leaf_mean)
            assert np.max(np.abs(phi - oracle)) < 1e-8

    def test_matches_exhaustive_subsets_classification(self):
        X, _ = make_data(4, n=100, p=3)
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = fit_cart(X, y, max_depth=4, task="classification")
        phi, expected = shap_values(model, X[:1], class_index=1)
        lv = lambda node: float(node["probs"][1])
        oracle = exhaustive_shapley(model.root, X[0], 3, lv)
        assert np.max(np.abs(phi[0] - oracle)) < 1e-8
        assert abs(phi[0].sum() + expected[0]
                   - model.predict_scores(X[:1])[0, 1]) < 1e-8

    def test_expected_is_cover_weighted_leaf_mean(self):
        X, y = make_data(5, n=60)
        model = fit_cart(X, y, max_depth=5)
        assert tree_expected(model.root) == pytest.approx(np.mean(y), abs=1e-10)

    def test_classification_default_explains_predicted_class(self):
        X, _ = make_data(6, n=40, p=2)
        y = (X[:, 0] > 0).astype(int)
        model = fit_cart(X, y, max_depth=3, task="classification")
        phi, expected = shap_values(model, X[:10])
        preds = model.predict(X[:10])
        assert len(set(preds.tolist())) == 2
        for i in range(10):
            one, e = shap_values(model, X[i:i + 1], class_index=int(preds[i]))
            assert np.array_equal(phi[i], one[0]) and expected[i] == e[0]


class TestForestShap:
    def test_local_accuracy_with_per_node_draws(self):
        X, y = make_data(7, n=150, p=5)
        yc = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))
        model = fit_forest(X, y, n_trees=8, k_features=2, max_depth=5, seed=0)
        preds = model.predict(X[:20])
        phi, expected = shap_values(model, X[:20])
        for i in range(20):
            assert abs(phi[i].sum() + expected[i] - preds[i]) < 1e-6
        model = fit_forest(X, yc, n_trees=8, k_features=2, max_depth=5,
                           task="classification", seed=0)
        scores = model.predict_scores(X[:20])
        phi, expected = shap_values(model, X[:20], class_index=2)
        for i in range(20):
            assert abs(phi[i].sum() + expected[i] - scores[i, 2]) < 1e-6

    @pytest.mark.parametrize("classify", [False, True])
    def test_matches_exhaustive_with_per_node_draws(self, classify):
        # one column per node, so that a tree splits on several columns
        X, y = make_data(10, n=100, p=4)
        target = (X[:, 0] + X[:, 1] > 0).astype(int) if classify else y
        model = fit_forest(X, target, n_trees=4, k_features=1, max_depth=3,
                           task="classification" if classify else "regression",
                           seed=3)
        lv = ((lambda node: 1.0 if node["value"] == 1 else 0.0) if classify
              else leaf_mean)
        for x in X[:4]:
            phi, _ = shap_values(model, x[None], class_index=1)
            oracle = np.mean([exhaustive_shapley(t.root, x, 4, lv)
                              for t in model.trees], axis=0)
            assert np.max(np.abs(phi[0] - oracle)) < 1e-8

    def test_classification_explains_vote_fraction(self):
        X, _ = make_data(8, n=120, p=3)
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        model = fit_forest(X, y, n_trees=7, max_depth=4, task="classification",
                           seed=1)
        x = X[0]
        phi, expected = shap_values(model, x[None], class_index=1)
        votes = np.mean([t.predict(x[None])[0] == 1 for t in model.trees])
        assert abs(phi[0].sum() + expected[0] - votes) < 1e-8


class TestGBTShap:
    def test_local_accuracy_raw_score(self):
        X, y = make_data(9, n=130)
        model = fit_gbt(X, y, n_rounds=15, max_depth=3)
        preds = model.predict_raw(X[:25])
        phi, expected = shap_values(model, X[:25])
        for i in range(25):
            assert abs(phi[i].sum() + expected[i] - preds[i]) < 1e-6


# ----------------------------------------------- reference tree dispatch ----
# The per-family tree attributions that the one weighted-sum loop of
# shap_values replaced, copied as they were. Attributions and expected
# values must match them bit for bit.

def _ref_class_leaf_value(class_index):
    def value(node):
        if "probs" in node:
            return float(node["probs"][class_index])
        return 1.0 if int(node["value"]) == class_index else 0.0
    return value


def _ref_shap_cart(model, x, n_features, class_index=None):
    lv = (leaf_mean if model.task == "regression"
          else _ref_class_leaf_value(class_index))
    return tree_shap(model.root, x, n_features, lv), tree_expected(model.root, lv)


def _ref_shap_forest(model, x, n_features, class_index=None):
    if model.task == "classification":
        lv = lambda node: 1.0 if int(node["value"]) == class_index else 0.0
    else:
        lv = leaf_mean
    phi = np.zeros(n_features)
    expected = 0.0
    for tree in model.trees:
        phi += tree_shap(tree.root, x, n_features, lv)
        expected += tree_expected(tree.root, lv)
    return phi / len(model.trees), expected / len(model.trees)


def _ref_shap_gbt(model, x, n_features):
    phi = np.zeros(n_features)
    expected = model.base_score
    for root in model.trees:
        phi += model.learning_rate * tree_shap(root, x, n_features)
        expected += model.learning_rate * tree_expected(root)
    return phi, expected


def _ref_shap_values(model, X, class_index=None):
    n, p = X.shape
    if isinstance(model, OvREnsemble):
        preds = model.predict(X) if class_index is None else None
        phi, expected = np.zeros((n, p)), np.zeros(n)
        for i in range(n):
            c = int(class_index if class_index is not None else preds[i])
            member = model.members[c]
            if member.family == "constant_score":
                expected[i] = member.SCORE
                continue
            phi_row, exp_row = _ref_shap_values(member, X[i:i + 1])
            phi[i], expected[i] = phi_row[0], exp_row[0]
        return phi, expected
    if isinstance(model, GBTModel):
        rows = [_ref_shap_gbt(model, X[i], p) for i in range(n)]
    else:
        assert isinstance(model, (CARTModel, ForestModel))
        fn = _ref_shap_forest if isinstance(model, ForestModel) else _ref_shap_cart
        classify = model.task == "classification"
        preds = model.predict(X) if classify else None
        rows = [fn(model, X[i], p,
                   class_index if class_index is not None
                   else (int(preds[i]) if classify else None))
                for i in range(n)]
    return np.stack([r[0] for r in rows]), np.array([r[1] for r in rows])


@pytest.fixture(scope="module")
def tree_models():
    X, y = make_data(20, n=90, p=4)
    yc = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))
    gbt = lambda Xb, yb: fit_gbt(Xb, yb, n_rounds=5, max_depth=3, loss="logistic")
    with pytest.warns(UserWarning, match="absent"):
        absent = one_vs_rest(gbt, X, np.minimum(yc, 1), n_classes=3)
    return X, {
        "cart_reg": fit_cart(X, y, max_depth=5),
        "cart_cls": fit_cart(X, yc, max_depth=4, task="classification"),
        "forest_reg": fit_forest(X, y, n_trees=5, k_features=3, max_depth=4,
                                 seed=0),
        "forest_cls": fit_forest(X, yc, n_trees=5, k_features=3, max_depth=4,
                                 task="classification", seed=1),
        "gbt_reg": fit_gbt(X, y, n_rounds=6, max_depth=3),
        "gbt_binary": fit_gbt(X, (yc > 0).astype(int), n_rounds=6,
                              max_depth=3, loss="logistic"),
        "ovr_gbt": one_vs_rest(gbt, X, yc),
        "ovr_gbt_absent_class": absent,
    }


class TestTreeReference:
    @pytest.mark.parametrize("class_index", [None, 0, 1, 2])
    def test_matches_reference_bit_for_bit(self, tree_models, class_index):
        X, models = tree_models
        for name, model in models.items():
            phi, expected = shap_values(model, X[:8], class_index=class_index)
            ref_phi, ref_expected = _ref_shap_values(model, X[:8], class_index)
            assert phi.tobytes() == ref_phi.tobytes(), name
            assert expected.tobytes() == ref_expected.tobytes(), name

    def test_ovr_of_standardized_trees_takes_kernel_path(self):
        # the members' trees split on scaled columns, which the tree method
        # cannot see, so the ensemble is explained by the kernel method
        X, y = make_data(21, n=90, p=3)
        X = 10.0 * X + 3.0
        yc = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))
        model = one_vs_rest(partial(fit_standardized, fit_gbt, n_rounds=5,
                                    loss="logistic"), X, yc)
        phi, expected = shap_values(model, X[:4], background=X[:10],
                                    class_index=1)
        target = model.predict_scores(X[:4])[:, 1]
        assert np.allclose(phi.sum(axis=1) + expected, target, atol=1e-8)


# ------------------------------------------------ recursive tree walk -------
# The per-row recursion that tree_shap replaced (Lundberg et al.'s
# Algorithm 2, arXiv:1905.04610), kept as the reference. The path arrays
# compute the same sums in another order, so the two agree within 1e-12.

def _ref_extend(path, pz, po, pi):
    path = [p[:] for p in path]
    path.append([pi, pz, po, 1.0 if not path else 0.0])
    l = len(path) - 1
    for i in range(l - 1, -1, -1):
        path[i + 1][3] += po * path[i][3] * (i + 1) / (l + 1)
        path[i][3] = pz * path[i][3] * (l - i) / (l + 1)
    return path


def _ref_unwind(path, i):
    path = [p[:] for p in path]
    l = len(path) - 1
    n = path[l][3]
    z, o = path[i][1], path[i][2]
    for j in range(l - 1, -1, -1):
        if o != 0:
            t = path[j][3]
            path[j][3] = n * (l + 1) / ((j + 1) * o)
            n = t - path[j][3] * z * (l - j) / (l + 1)
        else:
            path[j][3] = path[j][3] * (l + 1) / (z * (l - j))
    for j in range(i, l):
        path[j] = [path[j + 1][0], path[j + 1][1], path[j + 1][2], path[j][3]]
    return path[:-1]


def _ref_unwound_sum(path, i):
    l = len(path) - 1
    z, o = path[i][1], path[i][2]
    n = path[l][3]
    total = 0.0
    for j in range(l - 1, -1, -1):
        if o != 0:
            t = n * (l + 1) / ((j + 1) * o)
            total += t
            n = path[j][3] - t * z * (l - j) / (l + 1)
        else:
            total += path[j][3] * (l + 1) / (z * (l - j))
    return total


def _ref_tree_shap(root, x, n_features, leaf_value=leaf_mean):
    phi = np.zeros(n_features)

    def recurse(node, path, pz, po, pi):
        path = _ref_extend(path, pz, po, pi)
        if node["leaf"]:
            v = leaf_value(node)
            for i in range(1, len(path)):
                w = _ref_unwound_sum(path, i)
                phi[path[i][0]] += w * (path[i][2] - path[i][1]) * v
            return
        j, thr = node["feature"], node["threshold"]
        hot, cold = ((node["left"], node["right"]) if x[j] <= thr
                     else (node["right"], node["left"]))
        iz, io = 1.0, 1.0
        for k in range(1, len(path)):
            if path[k][0] == j:
                iz, io = path[k][1], path[k][2]
                path = _ref_unwind(path, k)
                break
        recurse(hot, path, iz * hot["n"] / node["n"], io, j)
        recurse(cold, path, iz * cold["n"] / node["n"], 0.0, j)

    recurse(root, [], 1.0, 1.0, -1)
    return phi


# thresholds and row values share a grid, so rows sit on thresholds
_GRID = [-1.0, -0.5, 0.0, 0.5, 1.0]
_row_values = st.sampled_from(_GRID + [-2.0, 0.25, 2.0])


@st.composite
def dict_trees(draw, n_features, n_classes=None, max_depth=6):
    """A dict tree over few features, so that features repeat on a path;
    classification leaves carry probs and their argmax as value."""
    def node(depth, n):
        if depth == max_depth or n < 2 or draw(st.integers(0, 3)) == 0:
            if n_classes is None:
                return {"leaf": True, "n": n,
                        "value": draw(st.floats(-5.0, 5.0))}
            counts = np.array(draw(st.lists(st.integers(0, 4),
                                            min_size=n_classes,
                                            max_size=n_classes))) + 0.5
            return {"leaf": True, "n": n, "value": int(np.argmax(counts)),
                    "probs": (counts / counts.sum()).tolist()}
        n_left = draw(st.integers(1, n - 1))
        return {"leaf": False, "n": n,
                "feature": draw(st.integers(0, n_features - 1)),
                "threshold": draw(st.sampled_from(_GRID)),
                "left": node(depth + 1, n_left),
                "right": node(depth + 1, n - n_left)}
    return node(0, draw(st.integers(1, 300)))


class TestTreeShapAgainstRecursion:
    @settings(max_examples=60, deadline=None)
    @given(dict_trees(3), st.lists(_row_values, min_size=3, max_size=3))
    def test_regression_trees(self, root, x):
        phi = tree_shap(root, x, 3)
        ref = _ref_tree_shap(root, x, 3)
        assert np.max(np.abs(phi - ref)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(dict_trees(4, n_classes=3),
           st.lists(_row_values, min_size=4, max_size=4),
           st.integers(0, 2))
    def test_classification_leaf_values(self, root, x, c):
        for lv in (lambda node: float(node["probs"][c]),
                   lambda node: 1.0 if node["value"] == c else 0.0):
            phi = tree_shap(root, x, 4, lv)
            ref = _ref_tree_shap(root, x, 4, lv)
            assert np.max(np.abs(phi - ref)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.booleans())
    def test_forests_with_per_node_draws(self, data, classify):
        # each tree splits on its own mix of the six columns, as nodes that
        # draw their columns make it
        n_classes = 3 if classify else None
        roots = data.draw(st.lists(dict_trees(6, n_classes, max_depth=4),
                                   min_size=1, max_size=5))
        model = ForestModel([CARTModel(r, n_classes) for r in roots],
                            n_classes)
        x = np.array(data.draw(st.lists(_row_values, min_size=6,
                                        max_size=6)))
        c = data.draw(st.integers(0, 2)) if classify else None
        lv = leaf_mean if c is None else (
            lambda node: 1.0 if node["value"] == c else 0.0)
        ref = sum(_ref_tree_shap(root, x, 6, lv) for root in roots)
        phi, _ = shap_values(model, x[None], class_index=c)
        assert np.max(np.abs(phi[0] - ref / len(roots))) <= 1e-12

    def test_fitted_models_match_recursion(self, tree_models):
        X, models = tree_models
        for name in ("cart_reg", "gbt_reg"):
            model = models[name]
            roots = [model.root] if name == "cart_reg" else model.trees
            w = 1.0 if name == "cart_reg" else model.learning_rate
            for x in X[:5]:
                ref = sum(w * _ref_tree_shap(r, x, 4) for r in roots)
                phi, _ = shap_values(model, x[None])
                assert np.max(np.abs(phi[0] - ref)) <= 1e-12


class TestTreePathCache:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 89), min_size=1, max_size=6, unique=True),
           st.data())
    def test_row_alone_equals_row_in_batch(self, tree_models, rows, data):
        X, models = tree_models
        i = data.draw(st.integers(0, len(rows) - 1))
        for name in ("cart_reg", "cart_cls", "forest_reg", "forest_cls",
                     "gbt_reg", "gbt_binary", "ovr_gbt"):
            phi, expected = shap_values(models[name], X[rows])
            one, e = shap_values(models[name], X[[rows[i]]])
            assert phi[i].tobytes() == one[0].tobytes(), name
            assert expected[i].tobytes() == e[0].tobytes(), name

    def test_built_on_first_explain_not_at_fit(self):
        X, y = make_data(22, n=60)
        yc = (y > 0).astype(int)
        models = [fit_cart(X, y, max_depth=3),
                  fit_forest(X, yc, n_trees=3, k_features=2, max_depth=3,
                             task="classification"),
                  fit_gbt(X, y, n_rounds=3)]
        ovr = one_vs_rest(lambda Xb, yb: fit_gbt(Xb, yb, n_rounds=2,
                                                 loss="logistic"), X, yc)
        for model in models + ovr.members + models[1].trees:
            assert "shap_paths" not in vars(model)
        for model in models:
            shap_values(model, X[:2])
        for c in (0, 1):
            shap_values(ovr, X[:2], class_index=c)
        for model in models + ovr.members:
            assert "shap_paths" in vars(model)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("family", ["cart", "linear"])
    def test_explained_row(self, family, bad):
        X, y = make_data(23, n=60)
        model = (fit_cart if family == "cart" else fit_linear)(X, y)
        rows = X[:3].copy()
        rows[1, 2] = bad
        with pytest.raises(ExplainError, match="explained rows"):
            shap_values(model, rows, background=X[:10])

    @pytest.mark.parametrize("family", ["cart", "linear"])
    def test_background_row(self, family):
        X, y = make_data(24, n=60)
        model = (fit_cart if family == "cart" else fit_linear)(X, y)
        background = X[:10].copy()
        background[4, 0] = np.nan
        with pytest.raises(ExplainError, match="background rows"):
            shap_values(model, X[:2], background=background)


# ---------------------------------------------------- kernel attribution -----

class TestKernelShap:
    def test_linear_model_exact_when_enumerable(self):
        w = np.array([2.0, -1.0, 0.5, 3.0])
        fn = lambda rows: np.atleast_2d(rows) @ w + 7.0
        rng = np.random.default_rng(0)
        background = rng.normal(size=(30, 4))
        x = np.array([1.0, 2.0, -1.0, 0.5])
        phi, f0 = kernel_shap(fn, x, background)
        assert np.allclose(phi, w * (x - background.mean(axis=0)), atol=1e-8)
        assert f0 == pytest.approx(float(background.mean(axis=0) @ w + 7.0))

    @pytest.mark.parametrize("M", [2, 4, 5])
    def test_exhaustive_design_gives_exact_shapley_values(self, M):
        # against one background row the coalition game is exact, and with
        # every coalition enumerated kernel SHAP returns its Shapley values
        rng = np.random.default_rng(M)
        x, g = rng.normal(size=M), rng.normal(size=M)
        fn = lambda rows: (np.prod(np.atleast_2d(rows), axis=1)
                           + np.atleast_2d(rows)[:, 0] ** 2)
        designs = []

        def values(x, background, Z):
            designs.append(Z)
            return (fn(np.where(Z > 0, x, background[0])),
                    fn(np.where(Z > 0, background[0], x)))
        phi, _ = kernel_shap(fn, x, g[None, :], coalition_values=values)
        # the first code of each complement pair, 2^M - 1 - c the second
        codes = range(1, 2 ** (M - 1))
        assert np.array_equal(designs[0], [[(c >> b) & 1 for b in range(M)]
                                           for c in codes])

        def value(present):
            return float(fn(np.where(np.isin(np.arange(M), present), x, g))[0])
        exact = np.zeros(M)
        for perm in itertools.permutations(range(M)):
            for k, j in enumerate(perm):
                exact[j] += value(perm[:k + 1]) - value(perm[:k])
        exact /= math.factorial(M)
        assert np.allclose(phi, exact, atol=1e-10)

    def test_sampled_regime_keeps_local_accuracy(self):
        p = 12  # 2^12 - 2 coalitions exceeds the sample budget below
        rng = np.random.default_rng(1)
        w = rng.normal(size=p)
        fn = lambda rows: np.atleast_2d(rows) @ w
        background = rng.normal(size=(10, p))
        x = rng.normal(size=p)
        phi, f0 = kernel_shap(fn, x, background, n_samples=600, seed=2)
        fx = float(x @ w)
        assert phi.sum() + f0 == pytest.approx(fx, abs=1e-8)
        assert np.allclose(phi, w * (x - background.mean(axis=0)), atol=0.15)

    def test_null_players_read_zero(self):
        # x equals every background row in columns 0 and 3, so no
        # coalition value depends on them
        w = np.array([2.0, -1.0, 0.5, 3.0, 1.5])
        fn = lambda rows: np.atleast_2d(rows) @ w + 7.0
        rng = np.random.default_rng(4)
        x = rng.normal(size=5)
        background = rng.normal(size=(30, 5))
        background[:, [0, 3]] = x[[0, 3]]
        for n_samples in (2048, 8):  # every coalition, and a sample
            phi, f0 = kernel_shap(fn, x, background, n_samples=n_samples)
            assert phi[0] == 0.0 and phi[3] == 0.0
            assert phi.sum() + f0 == pytest.approx(float(fn(x)[0]), abs=1e-8)
        assert np.allclose(phi, w * (x - background.mean(axis=0)), atol=1e-8)
        # one column that is not null takes the whole difference
        one = np.repeat(x[None, :], 3, axis=0)
        one[:, 2] += [1.0, 2.0, 3.0]
        phi, f0 = kernel_shap(fn, x, one)
        assert np.array_equal(phi == 0.0, [True, True, False, True, True])
        assert phi[2] == pytest.approx(-1.0)
        phi, f0 = kernel_shap(fn, x, np.repeat(x[None, :], 3, axis=0))
        assert np.all(phi == 0.0)
        assert f0 == pytest.approx(float(fn(x)[0]))

    def test_single_feature(self):
        fn = lambda rows: np.atleast_2d(rows)[:, 0] * 3.0
        phi, f0 = kernel_shap(fn, np.array([2.0]), np.zeros((5, 1)))
        assert phi[0] == pytest.approx(6.0)
        assert f0 == pytest.approx(0.0)

    def test_background_width_checked(self):
        with pytest.raises(ExplainError, match="background"):
            kernel_shap(lambda r: np.zeros(len(np.atleast_2d(r))),
                        np.zeros(3), np.zeros((4, 2)))

    def test_kernel_weights(self):
        assert shapley_kernel_weight(4, 0) == float("inf")
        assert shapley_kernel_weight(4, 4) == float("inf")
        assert shapley_kernel_weight(4, 1) == pytest.approx(3 / (4 * 1 * 3))
        assert shapley_kernel_weight(4, 2) == pytest.approx(3 / (6 * 2 * 2))

    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=12)
        fn = lambda rows: np.atleast_2d(rows) @ w
        bg = rng.normal(size=(5, 12))
        x = rng.normal(size=12)
        a, _ = kernel_shap(fn, x, bg, n_samples=400, seed=9)
        b, _ = kernel_shap(fn, x, bg, n_samples=400, seed=9)
        assert np.array_equal(a, b)

    def test_background_without_rows(self):
        # the coalition values were means of nothing: NaN attributions
        with pytest.raises(ExplainError, match="no rows"):
            kernel_shap(lambda r: np.zeros(len(np.atleast_2d(r))),
                        np.zeros(3), np.zeros((0, 3)))

    def test_underdetermined_design_warns(self):
        # 40 active columns leave 39 unknowns. A complement row adds no rank
        # to its partner's, so 39 rows (20 pairs) have rank 20 at most, and
        # 78 rows repeat singletons: their estimates are off by 40.7 and 7.0
        # of a largest |phi| of 53.5, so both must warn
        w = np.arange(40.0)
        fn = lambda rows: np.atleast_2d(rows) @ w
        rng = np.random.default_rng(5)
        x, background = rng.normal(size=40), rng.normal(size=(4, 40))
        for n_samples, rank in ((16, 8), (39, 20), (78, 37)):
            with pytest.warns(RuntimeWarning, match="%d rows of rank %d for 39 "
                              "unknowns" % (n_samples, rank)):
                phi, f0 = kernel_shap(fn, x, background, n_samples=n_samples)
            assert phi.sum() + f0 == pytest.approx(float(fn(x)[0]), abs=1e-8)
        # a design of full rank gets the exact values, and no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            phi, _ = kernel_shap(fn, x, background, n_samples=120)
        assert np.max(np.abs(phi - w * (x - background.mean(axis=0)))) < 1e-9

    @pytest.mark.parametrize("M", [2, 3, 6, 10])
    def test_exhaustive_design_never_warns(self, M):
        fn = lambda rows: np.atleast_2d(rows) @ np.arange(1.0, M + 1)
        rng = np.random.default_rng(M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kernel_shap(fn, rng.normal(size=M), rng.normal(size=(3, M)),
                        n_samples=2 ** M - 2)

    @pytest.mark.parametrize("n_samples", [-4, 0, 1])
    def test_too_few_samples_to_sample(self, n_samples):
        # with no coalitions all attribution went to the last column
        fn = lambda rows: np.atleast_2d(rows) @ np.arange(12.0)
        with pytest.raises(ExplainError, match="n_samples must be >= 2"):
            kernel_shap(fn, np.ones(12), np.zeros((4, 12)), n_samples=n_samples)


# the solve that kernel_shap ran before the Cholesky factor
_reference_lstsq = np.linalg.lstsq


def reference_least_squares(A, y):
    sol, _, rank, _ = _reference_lstsq(A, y, rcond=None)
    return sol, int(rank)


def _nonlinear_game(M, seed):
    """(predict_fn, coalition_values, x, background) of a nonlinear model
    on M columns and three background rows; coalition_values scores a
    whole half design in one predict."""
    rng = np.random.default_rng(seed)
    a, c = rng.normal(size=M), rng.normal(size=M)

    def fn(rows):
        rows = np.atleast_2d(rows)
        return np.sin(rows @ a) + rows[:, 0] * rows[:, -1] + rows ** 2 @ c

    def values(x, background, Z):
        return [fn(np.where(D[:, None, :] > 0, x, background).reshape(-1, M))
                .reshape(len(D), -1).mean(axis=1) for D in (Z, 1.0 - Z)]
    return fn, values, rng.normal(size=M), rng.normal(size=(3, M))


class TestLeastSquares:
    """The Cholesky solve against the SVD solve it replaced: within 1e-10
    of the largest |phi| where the factor runs, and the same bits where
    the solve falls back to np.linalg.lstsq."""

    @staticmethod
    def _solve(M, n_samples, seed, monkeypatch):
        """(phi, reference phi, fell back, warned) of one design."""
        fn, values, x, background = _nonlinear_game(M, 1000 * M + n_samples)
        fallbacks = []
        with monkeypatch.context() as m, warnings.catch_warnings(
                record=True) as warned:
            m.setattr(np.linalg, "lstsq", lambda *a, **k: (
                fallbacks.append(1) or _reference_lstsq(*a, **k)))
            warnings.simplefilter("always")
            phi, _ = kernel_shap(fn, x, background, n_samples, seed,
                                 coalition_values=values)
        with monkeypatch.context() as m:
            m.setattr(explain, "_least_squares", reference_least_squares)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                ref, _ = kernel_shap(fn, x, background, n_samples, seed,
                                     coalition_values=values)
        return phi, ref, bool(fallbacks), bool(warned)

    def test_matches_the_reference_solve(self, monkeypatch):
        # sampled designs of n_samples from M to 6M, odd counts included,
        # and for M <= 9 exhaustive ones
        cases = [(M, n) for M in range(2, 71, 4)
                 for n in sorted({M, M + 1, 2 * M - 1, 2 * M + 1, 3 * M,
                                  4 * M + 1, 6 * M})]
        cases += [(M, 2048) for M in range(2, 10)]
        factored = fell_back = fell_back_with_pairs = 0
        for M, n_samples in cases:
            phi, ref, fallback, warned = self._solve(M, n_samples, n_samples,
                                                     monkeypatch)
            if fallback:
                fell_back += 1
                # more pairs than unknowns, but repeated singletons
                fell_back_with_pairs += n_samples // 2 > M - 1
                assert phi.tobytes() == ref.tobytes(), (M, n_samples)
            else:
                factored += 1
                assert not warned, (M, n_samples)  # the factor has full rank
                assert (np.max(np.abs(phi - ref))
                        <= 1e-10 * np.max(np.abs(ref))), (M, n_samples)
        assert factored > 50 and fell_back > 20 and fell_back_with_pairs

    def test_exhaustive_designs_take_the_factor(self, monkeypatch):
        for M in range(2, 10):
            _, _, fallback, warned = self._solve(M, 2048, 0, monkeypatch)
            assert not fallback and not warned

    def test_repeated_singletons_fall_back(self, monkeypatch):
        # four pairs for three unknowns, but the singletons {0} and {1}
        # each come twice, so the eliminated design has rank 2
        half = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 1, 0, 0.0]])
        Z = np.stack([half, 1.0 - half], axis=1).reshape(-1, 4)
        A = Z[:, :3] - Z[:, [3]]
        y = np.random.default_rng(0).normal(size=len(Z))
        fallbacks = []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: (
            fallbacks.append(1) or _reference_lstsq(*a, **k)))
        sol, rank = explain._least_squares(A, y)
        assert fallbacks and rank == 2
        ref, _ = reference_least_squares(A, y)
        assert sol.tobytes() == ref.tobytes()


# ------------------------------------------------- first-layer coalitions -----
# shap_values scores the coalitions of kernel machines and of linear,
# logistic and MLP models from per-background-row first-layer updates;
# kernel_shap's predict loop over the imputed rows is the reference.

def _kernel_machines(p, kernel, gamma=0.2):
    """A standardized SVR and a one-vs-rest ensemble of standardized SVMs on
    p columns. Column 1 holds one value in every row; the background's
    first row is the first explained row."""
    X, y, yc = _coalition_data(p)
    svr = fit_standardized(fit_svr, X, y, kernel=kernel, gamma=gamma)
    svm = one_vs_rest(partial(fit_standardized, fit_svm, kernel=kernel,
                              gamma=gamma), X, yc, labels="pm1")
    return X, X[[0] + list(range(40, 52))], svr, svm


def _coalition_data(p):
    """80 rows of p >= 2 columns and their regression and 3-class targets."""
    rng = np.random.default_rng(p)
    X = rng.normal(size=(80, p)) * 3.0 + 1.0
    X[:, 1] = 2.5
    X[:, 2:3] = np.round(X[:, 2:3])  # ties between x and background rows
    y = (X[:, 0] + np.sin(X[:, 3 if p > 3 else -1])
         + 0.5 * X[:, 2:3].sum(axis=1))
    return X, y, np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))


FIRST_LAYER_MODELS = ["mlp", "mlp_classifier", "ovr_logistic"]


def _first_layer_model(name, p):
    """(model, class index or None) of a first-layer-affine model, or of
    the linear model, on _coalition_data(p), standardized as the pipeline
    fits it."""
    X, y, yc = _coalition_data(p)
    if name == "linear":
        return fit_standardized(fit_linear, X, y), None
    if name == "mlp":
        return fit_standardized(fit_mlp, X, y, hidden=(4, 3), epochs=20,
                                seed=0), None
    if name == "mlp_classifier":
        return fit_standardized(fit_mlp, X, yc, hidden=(5,), epochs=20,
                                task="classification", seed=0), 1
    return one_vs_rest(partial(fit_standardized, fit_logistic, epochs=40),
                       X, yc), 2


def _explained_output(model, class_index):
    if class_index is None:
        return lambda rows: np.asarray(model.predict(rows), dtype=np.float64)
    return lambda rows: model.predict_scores(rows)[:, class_index]


def _predict_loop(model, X, background, n_samples, seed, class_index=None):
    fn = _explained_output(model, class_index)
    rows = [kernel_shap(fn, X[i], background, n_samples, seed)
            for i in range(len(X))]
    return np.stack([r[0] for r in rows]), np.array([r[1] for r in rows])


def _matches_predict_loop(model, class_index, X, background, n_samples, seed):
    """shap_values of the rows X, checked against the predict loop (1e-9)
    and for local accuracy (1e-6); returns (phi, expected)."""
    phi, expected = shap_values(model, X, background, n_samples=n_samples,
                                seed=seed, class_index=class_index)
    ref_phi, ref_expected = _predict_loop(model, X, background, n_samples,
                                          seed, class_index)
    assert np.isfinite(phi).all()
    assert np.max(np.abs(phi - ref_phi)) < 1e-9
    assert np.max(np.abs(expected - ref_expected)) < 1e-9
    target = _explained_output(model, class_index)(X)
    assert np.allclose(phi.sum(axis=1) + expected, target, atol=1e-6)
    return phi, expected


def _first_layer_models(p, kernel="rbf", gamma=0.2):
    """(model, class index or None) of every model kind that _first_layer
    takes, fitted on _coalition_data(p)."""
    _, _, svr, svm = _kernel_machines(p, kernel, gamma)
    return [(svr, None), (svm, 0)] + [_first_layer_model(name, p)
                                      for name in FIRST_LAYER_MODELS]


class TestKernelMachineValues:
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    @pytest.mark.parametrize("p, n_samples", [(6, 512), (12, 96)])
    def test_matches_predict_loop(self, kernel, p, n_samples):
        # p = 6 enumerates all 62 coalitions; p = 12 samples 96 of 4094
        X, background, svr, svm = _kernel_machines(p, kernel)
        for model, class_index in ((svr, None), (svm, 0), (svm, 2)):
            phi, expected = shap_values(model, X[:3], background,
                                        n_samples=n_samples, seed=4,
                                        class_index=class_index)
            ref_phi, ref_expected = _predict_loop(model, X[:3], background,
                                                  n_samples, 4, class_index)
            assert np.max(np.abs(phi - ref_phi)) < 1e-9
            assert np.max(np.abs(expected - ref_expected)) < 1e-9
            if n_samples >= 2 ** p - 2:  # exact: x equals every background
                assert np.max(np.abs(phi[:, 1])) < 1e-9  # row in column 1

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_coalition_values_are_mean_predictions_of_imputed_rows(self, kernel):
        # phi cannot see an offset shared by every coalition value (the
        # Shapley weights of the empty and the full-but-one coalitions
        # cancel it), so the values themselves are checked
        X, background, svr, svm = _kernel_machines(6, kernel)
        Z = (np.random.default_rng(0).random((40, 6)) < 0.5).astype(float)
        models = [(svr, None), (svm, 1)] + [
            _first_layer_model(name, 6) for name in FIRST_LAYER_MODELS]
        for model, c in models:
            fn = _explained_output(model, c)
            values, complements = _first_layer_values(
                *_first_layer(model, c), X[0], background, Z)
            for got, design in ((values, Z), (complements, 1.0 - Z)):
                ref = [np.mean(fn(np.where(z > 0, X[0], background)))
                       for z in design]
                assert np.max(np.abs(got - ref)) < 1e-9

    @pytest.mark.parametrize("method, class_index",
                             [("predict", None), ("predict_scores", 1)])
    def test_a_row_evaluates_only_the_background_and_the_row(self, method,
                                                             class_index):
        # f0 and f(x); the predict loop made one more call per coalition
        X, background, svr, svm = _kernel_machines(6, "rbf")
        models = [svr if class_index is None else svm] + [
            model for model, c in (_first_layer_model(name, 6)
                                   for name in FIRST_LAYER_MODELS)
            if (c is None) == (class_index is None)]
        assert len(models) == (2 if class_index is None else 3)
        for model in models:
            calls, evaluate = [], getattr(model, method)
            setattr(model, method,
                    lambda rows: calls.append(len(rows)) or evaluate(rows))
            shap_values(model, X[:1], background, n_samples=64,
                        class_index=class_index)
            assert calls == [len(background), 1]

    @pytest.mark.parametrize("name", FIRST_LAYER_MODELS)
    def test_first_layer_models_match_the_predict_loop(self, name):
        # the same coalitions, scored by updates instead of predictions
        X, background, _, _ = _kernel_machines(12, "rbf")
        model, class_index = _first_layer_model(name, 12)
        _matches_predict_loop(model, class_index, X[:2], background, 64, 5)


def reference_first_layer(model, class_index):
    """_first_layer as it was before the offset and -gamma moved into the
    product: (std, W, b, sq, head), where an rbf head takes the squared
    distances themselves."""
    if isinstance(model, OvREnsemble):
        model = model.members[class_index]
    std = None
    if isinstance(model, StandardizedModel):
        std, model = model.standardizer, model.inner
    if isinstance(model, (SVMModel, SVRModel)):
        rbf = model.kernel == "rbf"

        def head(K):
            if rbf:
                rbf_in_place(K, model.gamma)
            return K @ model.coef + model.b
        return (std, np.ascontiguousarray(model.support_vectors.T), 0.0,
                model.sv_sq if rbf else None, head)
    if isinstance(model, LogisticModel):
        return std, model.w[:, None], model.b, None, lambda H: sigmoid(H[:, 0])
    assert isinstance(model, MLPModel)
    scores = model.scores_from_first_layer
    return (std, model.weights[0], model.biases[0], None,
            scores if class_index is None
            else lambda H: scores(H)[:, class_index])


def reference_first_layer_values(std, W, b, sq, head, x, background, Z):
    """_first_layer_values as it was before complement pairs and blocks:
    the values of the rows of Z alone, one full product per background
    row, the offset added and the rbf kernel taken after it."""
    if std is not None:
        x, background = std.transform(x), std.transform(background)
    base = (background @ W + b if sq is None
            else sq_distances(background, W.T, sq))
    total = np.zeros(len(Z))
    for g, base_g in zip(background, base):
        J = np.flatnonzero(x != g)
        update = W[J]
        if sq is not None:
            update *= -2.0
            update += (x + g)[J, None]
        update *= (x - g)[J, None]
        H = Z[:, J] @ update
        H += base_g
        total += head(H)
    return total / len(background)


class TestFirstLayerReference:
    """The values of a half design and its complements against the
    routine that scored the whole design, to 1e-12 of the largest value,
    with blocks of one row, of a few rows and of the default size."""

    def _check(self, models, X, background, monkeypatch):
        Z = (np.random.default_rng(1).random((45, X.shape[1])) < 0.5) * 1.0
        for block_bytes in (1, 1000, 2 ** 14, explain._BLOCK_BYTES):
            monkeypatch.setattr(explain, "_BLOCK_BYTES", block_bytes)
            for model, c in models:
                layer = reference_first_layer(model, c)
                for x in X[:3]:
                    got = _first_layer_values(*_first_layer(model, c), x,
                                              background, Z)
                    ref = [reference_first_layer_values(*layer, x, background,
                                                        design)
                           for design in (Z, 1.0 - Z)]
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(got - ref)) <= 1e-12 * scale

    @pytest.mark.parametrize("kernel, gamma", [("rbf", 0.01), ("rbf", 1.0),
                                               ("rbf", 10.0), ("linear", 1.0)])
    def test_kernel_machines(self, kernel, gamma, monkeypatch):
        X, background, svr, svm = _kernel_machines(12, kernel, gamma)
        self._check([(svr, None), (svm, 0), (svm, 2)], X, background,
                    monkeypatch)

    @pytest.mark.parametrize("name", FIRST_LAYER_MODELS)
    def test_first_layer_affine_models(self, name, monkeypatch):
        X, background, _, _ = _kernel_machines(12, "linear")
        self._check([_first_layer_model(name, 12)], X, background,
                    monkeypatch)

    def test_one_call_takes_both_rbf_branches(self, monkeypatch):
        # at gamma = 10, 35 of the 39 (row, background row) combinations
        # have an exponent of C_g below _EXP_SAFE and fall back
        X, background, svr, svm = _kernel_machines(12, "rbf", 10.0)
        calls = _spy_branches(monkeypatch)
        for model, c in ((svr, None), (svm, 0), (svm, 2)):
            calls.clear()
            for x in X[:3]:
                _first_layer_values(*_first_layer(model, c), x, background,
                                    np.ones((5, 12)))
            assert calls == {"reciprocal": 4, "subtraction": 35}

    @pytest.mark.parametrize("gamma, branch", [
        (0.01, "reciprocal"), (0.01, "subtraction"), (1.0, "reciprocal"),
        (1.0, "subtraction"), (10.0, "subtraction")])
    def test_each_rbf_branch_alone(self, gamma, branch, monkeypatch):
        # every background row takes the branch; at gamma = 10 the
        # reciprocal's exp(C_g) underflows, which is what the guard is for
        monkeypatch.setattr(explain, "_EXP_SAFE",
                            -np.inf if branch == "reciprocal" else np.inf)
        calls = _spy_branches(monkeypatch)
        X, background, svr, svm = _kernel_machines(12, "rbf", gamma)
        self._check([(svr, None), (svm, 0), (svm, 2)], X, background,
                    monkeypatch)
        assert set(calls) == {branch}


def _spy_branches(monkeypatch):
    """Count the background rows that each of _first_layer_values' two
    ways of scoring pairs takes; returns the counts, keyed by branch."""
    calls = {}
    for branch in ("reciprocal", "subtraction"):
        name = "_pairs_by_" + branch
        score = getattr(explain, name)

        def spy(*args, branch=branch, score=score):
            calls[branch] = calls.get(branch, 0) + 1
            return score(*args)
        monkeypatch.setattr(explain, name, spy)
    return calls


class TestFirstLayerEdgeCases:
    """Every model kind that _first_layer takes matches the predict loop
    and keeps local accuracy where the pairs or the blocks have an edge."""

    @pytest.mark.parametrize("n_samples", [3, 7, 33])
    def test_odd_n_samples(self, n_samples, monkeypatch):
        # the last pair's complement is scored and dropped, by reciprocal
        # for every background row of the SVR and the SVM member
        X, background, _, _ = _kernel_machines(12, "rbf")
        calls = _spy_branches(monkeypatch)
        for model, c in _first_layer_models(12):
            _matches_predict_loop(model, c, X[:2], background, n_samples, 3)
        assert calls["reciprocal"] == 2 * 2 * len(background)

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_no_support_vectors(self, kernel):
        # a first layer of width 0: every coalition value is the offset
        rows = np.random.default_rng(97).normal(size=(6, 4))
        svr = SVRModel(np.zeros((0, 4)), [], 0.5, kernel, 0.1)
        phi, expected = shap_values(svr, rows[:1], rows[1:], 64, 0)
        assert np.all(phi == 0.0) and expected[0] == 0.5

    @pytest.mark.parametrize("M", range(2, 9))
    def test_exhaustive_designs_give_exact_shapley_values(self, M):
        X, _, _, _ = _kernel_machines(M, "rbf")
        background = X[40:45]
        subsets = list(itertools.product([0, 1], repeat=M))
        for model, c in _first_layer_models(M):
            phi, _ = _matches_predict_loop(model, c, X[:1], background,
                                           2048, 0)
            fn = _explained_output(model, c)
            value = {z: np.mean(fn(np.where(np.array(z) > 0, X[0],
                                            background))) for z in subsets}
            exact = np.zeros(M)
            for z in subsets:
                s = sum(z)
                for j in np.flatnonzero(np.array(z) == 0):
                    with_j = z[:j] + (1,) + z[j + 1:]
                    exact[j] += (math.factorial(s) * math.factorial(M - s - 1)
                                 / math.factorial(M)
                                 * (value[with_j] - value[z]))
            assert np.allclose(phi[0], exact, atol=1e-9)

    @pytest.mark.parametrize("p, n_samples", [(6, 2048), (12, 64)])
    def test_null_player_reads_zero(self, p, n_samples):
        # column 1 holds one value in every row, so x equals every
        # background row there; p = 6 enumerates every coalition
        X, background, svr, _ = _kernel_machines(p, "rbf")
        models = [(svr, None), _first_layer_model("mlp", p)]
        for model, c in models:
            phi, _ = _matches_predict_loop(model, c, X[:2], background,
                                           n_samples, 1)
            ref_phi, _ = _predict_loop(model, X[:2], background, n_samples,
                                       1, c)
            assert np.all(phi[:, 1] == 0.0) and np.all(ref_phi[:, 1] == 0.0)
            assert np.all(phi[:, [0, 3]] != 0.0)

    def test_background_rows_equal_to_x(self):
        # J is empty for such a row: its first layer is its offset alone
        X, _, _, _ = _kernel_machines(12, "rbf")
        for model, c in _first_layer_models(12):
            _matches_predict_loop(model, c, X[:1], X[:1], 64, 2)
            phi, expected = _matches_predict_loop(
                model, c, X[:1], np.repeat(X[:1], 4, axis=0), 64, 2)
            assert np.max(np.abs(phi)) < 1e-12
            assert expected[0] == pytest.approx(
                float(_explained_output(model, c)(X[:1])[0]), abs=1e-12)

    def test_every_kernel_term_underflows(self):
        # gamma = 100 on standardized columns: exp(-gamma D) is 0 for every
        # support vector, so every coalition value is the offset
        _, _, svr, svm = _kernel_machines(12, "rbf", gamma=100.0)
        rows = np.random.default_rng(99).normal(size=(6, 12)) * 3.0 + 1.0
        assert np.all(svr.predict(rows) == svr.inner.b)
        for model, c in ((svr, None), (svm, 0)):
            phi, _ = _matches_predict_loop(model, c, rows[:1], rows[1:], 64, 2)
            assert np.all(phi == 0.0)

    def test_constant_model_reads_exactly_zero(self):
        # the plain mean of five copies of c is not c; the refined one is
        c = -0.49056603773588486
        rows = np.random.default_rng(98).normal(size=(6, 4))
        x, background = rows[0], rows[1:]
        phi, expected = kernel_shap(lambda r: np.full(len(r), c), x,
                                    background, 64, 0)
        assert np.all(phi == 0.0) and expected == c
        model = LinearModel(np.zeros(4), c)
        phi, expected = shap_values(model, rows[:1], background, 64, 0)
        assert np.all(phi == 0.0) and expected[0] == c


class TestLinearClosedForm:
    """A LinearModel, bare or behind a standardizer, gets its exact
    interventional values w_j mean_g(x_j - g_j) over the background rows g,
    on the scaled columns, without a coalition design."""

    @staticmethod
    def _model(p, standardized):
        rng = np.random.default_rng(p)
        X = rng.normal(size=(40, p)) * 2.0 + 1.0
        y = X @ rng.normal(size=p) + 0.3 * rng.normal(size=40)
        fit = (partial(fit_standardized, fit_linear) if standardized
               else fit_linear)
        return X, fit(X, y)

    @pytest.mark.parametrize("standardized", [False, True])
    @pytest.mark.parametrize("p", [1, 2, 3, 6, 10])
    def test_matches_exhaustive_enumeration(self, p, standardized):
        X, model = self._model(p, standardized)
        background = X[20:27]
        phi, expected = shap_values(model, X[:2], background)
        # coalition code c holds column j when bit j is set
        codes = np.arange(2 ** p)
        present = (codes[:, None] >> np.arange(p)) & 1 > 0
        sizes = present.sum(axis=1)
        weight = np.array([math.factorial(s) * math.factorial(p - s - 1)
                           / math.factorial(p) for s in range(p)])
        for x, got in zip(X[:2], phi):
            rows = np.where(present[:, None, :], x, background)
            value = model.predict(rows.reshape(-1, p)).reshape(2 ** p, -1)
            value = value.mean(axis=1)
            exact = np.zeros(p)
            for j in range(p):
                without = ~present[:, j]
                exact[j] = np.sum(weight[sizes[without]] * (
                    value[codes[without] | (1 << j)] - value[without]))
            assert np.max(np.abs(got - exact)) <= 1e-12 * np.max(np.abs(exact))
        assert np.all(expected == explain._mean(model.predict(background)))

    @pytest.mark.parametrize("standardized", [False, True])
    def test_local_accuracy(self, standardized):
        X, model = self._model(12, standardized)
        phi, expected = shap_values(model, X[:20], X[20:40])
        gap = phi.sum(axis=1) + expected - model.predict(X[:20])
        assert np.max(np.abs(gap)) <= 1e-12

    @pytest.mark.parametrize("standardized", [False, True])
    def test_null_players_read_exactly_zero(self, standardized):
        # x equals every background row in columns 0 and 3
        X, model = self._model(6, standardized)
        x, background = X[0], X[20:30].copy()
        background[:, [0, 3]] = x[[0, 3]]
        phi, _ = shap_values(model, x, background)
        assert np.array_equal(phi[0] == 0.0, np.isin(np.arange(6), [0, 3]))
        # a background of copies of x leaves nothing to attribute
        phi, expected = shap_values(model, x, np.repeat(x[None, :], 4, axis=0))
        assert np.all(phi == 0.0)
        assert expected[0] == pytest.approx(float(model.predict(x[None])[0]),
                                            abs=1e-12)

    def test_a_row_evaluates_only_the_background(self):
        # the kernel path also predicted the row itself
        X, background, _, _ = _kernel_machines(6, "rbf")
        model, _ = _first_layer_model("linear", 6)
        calls, evaluate = [], model.predict
        model.predict = lambda rows: calls.append(len(rows)) or evaluate(rows)
        shap_values(model, X[:1], background, n_samples=64)
        assert calls == [len(background)]

    def test_a_full_rank_design_recovers_them(self):
        # a linear model's coalition game is additive, so the predict loop
        # returns its exact values wherever its design has full rank
        X, background, _, _ = _kernel_machines(12, "rbf")
        model, _ = _first_layer_model("linear", 12)
        _matches_predict_loop(model, None, X[:2], background, 64, 5)


class TestCoalitionDraw:
    M = 10  # 1022 coalitions, more than the samples drawn

    def _draws(self, n_samples, seeds):
        """The design that the predict loop scores, per seed. x is all ones
        and the background all zeros, so an imputed row is its coalition;
        coalition_values must get the first row of each pair of it."""
        designs = []
        x, background = np.ones(self.M), np.zeros((2, self.M))
        for seed in seeds:
            scored, halves = [], []

            def fn(rows):
                scored.append(rows[0])
                return np.zeros(len(rows))

            def keep(x, background, Z):
                halves.append(Z)
                return np.zeros(len(Z)), np.zeros(len(Z))
            kernel_shap(fn, x, background, n_samples, seed)
            kernel_shap(fn, x, background, n_samples, seed,
                        coalition_values=keep)
            Z = np.array(scored[2:-2])  # after f0's and f(x)'s calls
            assert np.array_equal(halves[0], Z[::2])
            designs.append(Z)
        return designs

    @pytest.mark.parametrize("n_samples", [2, 7, 400, 401])
    def test_sizes_and_complement_pairs(self, n_samples):
        for Z in self._draws(n_samples, range(3)):
            assert Z.shape == (n_samples, self.M)
            assert set(np.unique(Z)) <= {0.0, 1.0}
            sizes = Z.sum(axis=1)
            assert sizes.min() >= 1 and sizes.max() <= self.M - 1
            pairs = n_samples // 2  # an odd last row has no complement
            assert np.array_equal(Z[1:2 * pairs:2], 1.0 - Z[0:2 * pairs:2])

    def test_sizes_and_columns_follow_the_kernel(self):
        # 20 designs of 1001 coalitions. The size of a coalition is drawn
        # with probability proportional to (M - 1) / (s (M - s)), which its
        # complement's size shares; the columns of a coalition of size s
        # are a uniform subset, so each is in it with probability s / M
        M = self.M
        Z = np.concatenate(self._draws(1001, range(20)))
        sizes = Z.sum(axis=1).astype(int)
        size_p = np.array([(M - 1) / (s * (M - s)) for s in range(1, M)])
        size_p /= size_p.sum()
        freq = np.bincount(sizes, minlength=M)[1:] / len(Z)
        # a frequency's standard deviation is below 0.004 here
        assert np.max(np.abs(freq - size_p)) < 0.02
        for s in range(1, M):
            rows = Z[sizes == s]
            rate = rows.mean(axis=0)
            q = s / M
            # five standard deviations of a rate over these rows
            tol = 5 * np.sqrt(q * (1 - q) / len(rows))
            assert np.max(np.abs(rate - q)) < tol, s


# ------------------------------------------------------------ dispatch -------

class TestDispatch:
    def test_tree_model_needs_no_background(self):
        X, y = make_data(10, n=80)
        model = fit_cart(X, y, max_depth=4)
        phi, expected = shap_values(model, X[:5])
        assert phi.shape == (5, 4)
        assert np.allclose(phi.sum(axis=1) + expected, model.predict(X[:5]),
                           atol=1e-6)

    def test_ovr_gbt_explains_predicted_class_margin(self):
        X, _ = make_data(11, n=120, p=3)
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
        model = one_vs_rest(
            lambda Xb, yb: fit_gbt(Xb, yb, n_rounds=8, loss="logistic"), X, y)
        phi, expected = shap_values(model, X[:10])
        preds = model.predict(X[:10])
        for i in range(10):
            raw = model.members[int(preds[i])].predict_raw(X[i:i + 1])[0]
            assert abs(phi[i].sum() + expected[i] - raw) < 1e-6

    def test_kernel_path_requires_background(self):
        X, y = make_data(12, n=60)
        model = fit_linear(X, y)
        with pytest.raises(ExplainError, match="background"):
            shap_values(model, X[:2])

    @pytest.mark.parametrize("class_index", [None, 1])
    def test_bare_binary_classifier_is_refused(self, class_index):
        X, _ = make_data(15, n=40, p=3)
        y = (X[:, 0] > 0).astype(int)
        for model in (fit_svm(X, 2 * y - 1), fit_logistic(X, y, epochs=20),
                      fit_standardized(fit_svm, X, 2 * y - 1)):
            with pytest.raises(ExplainError, match="one-vs-rest"):
                shap_values(model, X[:2], X[:5], n_samples=16,
                            class_index=class_index)

    @pytest.mark.parametrize("class_index", [-1, 3])
    @pytest.mark.parametrize("family", ["linear", "mlp", "gbt", "cart"])
    def test_class_index_out_of_range(self, family, class_index):
        # a negative index explained the last class, one past the end
        # raised a bare IndexError
        X, _ = make_data(16, n=90, p=3)
        y = np.digitize(X[:, 0], [-0.4, 0.4])
        cfg = merge_config({"logistic": {"epochs": 20}, "mlp": {"epochs": 10},
                            "gbt": {"n_rounds": 3}})
        model = fit_family(family, X, y, "classification", 3, cfg, 0)
        shap_values(model, X[:1], X[:5], n_samples=16, class_index=2)
        with pytest.raises(ExplainError, match="out of range.* 0 to 2"):
            shap_values(model, X[:1], X[:5], n_samples=16,
                        class_index=class_index)

    def test_absent_class_of_a_kernel_ensemble_reads_its_score(self,
                                                                monkeypatch):
        # the member of class 2 is constant: phi 0 and its score, with no
        # coalition scored by the ensemble
        X, _, yc = _coalition_data(4)
        with pytest.warns(UserWarning, match="absent"):
            model = one_vs_rest(partial(fit_standardized, fit_svm,
                                        kernel="rbf", gamma=0.2),
                                X, np.minimum(yc, 1), n_classes=3,
                                labels="pm1")
        assert model.members[2].family == "constant_score"

        def refuse(rows):
            raise AssertionError("predict_scores called")
        monkeypatch.setattr(model, "predict_scores", refuse)
        phi, expected = shap_values(model, X[:3], X[40:45], n_samples=16,
                                    class_index=2)
        assert np.all(phi == 0.0)
        assert expected.tolist() == [ConstantScoreModel.SCORE] * 3

    def test_kernel_path_linear_model(self):
        X, y = make_data(13, n=60)
        model = fit_linear(X, y)
        phi, expected = shap_values(model, X[:3], background=X[:20])
        assert np.allclose(phi.sum(axis=1) + expected, model.predict(X[:3]),
                           atol=1e-8)

    def test_classifier_kernel_explains_predicted_class(self):
        X, _ = make_data(14, n=80, p=2)
        y = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
        model = fit_mlp(X, y, hidden=(6,), epochs=50, task="classification",
                        seed=0)
        preds = model.predict(X[:6])
        assert len(set(preds.tolist())) > 1
        phi, expected = shap_values(model, X[:6], background=X[:10],
                                    n_samples=64, seed=3)
        for i, c in enumerate(preds.tolist()):
            one, e = shap_values(model, X[i:i + 1], background=X[:10],
                                 n_samples=64, seed=3, class_index=c)
            assert phi[i].tobytes() == one[0].tobytes()
            assert expected[i] == e[0]
        target = model.predict_scores(X[:6])[np.arange(6), preds]
        assert np.allclose(phi.sum(axis=1) + expected, target, atol=1e-8)


# ------------------------------------------------------------ summaries ------

class TestSummaries:
    def test_global_importance_orders_by_mean_abs(self):
        phi = np.array([[1.0, -3.0, 0.0], [-1.0, 3.0, 0.5]])
        rep = global_importance(phi, ["a", "b", "c"])
        assert rep.top(2) == [("b", 3.0), ("a", 1.0)]

    def test_column_mismatch(self):
        with pytest.raises(ExplainError):
            global_importance(np.zeros((2, 3)), ["a", "b"])

    def test_importance_csv(self, tmp_path):
        rep = global_importance(np.array([[0.5, 2.0]]), ["x", "y"])
        path = tmp_path / "imp.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,feature,mean_abs_attribution"
        assert lines[1].startswith("1,y,")

    def test_beeswarm_csv(self, tmp_path):
        phi = np.array([[0.1, -2.0], [0.2, 1.0]])
        X = np.array([[5.0, 6.0], [7.0, 8.0]])
        path = tmp_path / "b.csv"
        beeswarm_csv(phi, X, ["u", "v"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "feature,sample,feature_value,attribution"
        # feature v has the larger mean |attribution| so it comes first
        assert lines[1].split(",")[0] == "v"
        assert len(lines) == 1 + 4

    def test_columns_that_print_alike_rank_by_index(self, tmp_path):
        # equal at .8g, but the later column's mean is larger in its last bits
        low, high = 0.3, 0.3 * (1 + 1e-15)
        assert high > low and format(high, ".8g") == format(low, ".8g")
        phi = np.array([[0.1, low, high], [-0.1, -low, -high]])
        X = np.zeros_like(phi)
        columns = ["small", "tie_first", "tie_second"]
        rep = global_importance(phi, columns)
        assert [name for name, _ in rep.top(3)] == ["tie_first", "tie_second", "small"]
        rep.to_csv(tmp_path / "imp.csv")
        ranked = [line.split(",")[1]
                  for line in (tmp_path / "imp.csv").read_text().splitlines()[1:]]
        assert ranked == ["tie_first", "tie_second", "small"]
        beeswarm_csv(phi, X, columns, tmp_path / "b.csv")
        order = [line.split(",")[0]
                 for line in (tmp_path / "b.csv").read_text().splitlines()[1::2]]
        assert order == ["tie_first", "tie_second", "small"]

    def test_beeswarm_shape_mismatch(self, tmp_path):
        with pytest.raises(ExplainError):
            beeswarm_csv(np.zeros((2, 2)), np.zeros((3, 2)), ["a", "b"],
                         tmp_path / "x.csv")


class TestEmbeddingKeywords:
    def table(self):
        vecs = np.array([[1.0, 0.0], [-2.0, 0.5], [0.5, 1.0]])
        return EmbeddingTable(["alpha", "beta", "gamma"], vecs, vecs.copy())

    def test_positive_and_negative_loadings(self):
        out = embedding_keywords(self.table(), 0, k=2)
        assert out["positive"][0] == ("alpha", 1.0)
        assert out["negative"][0] == ("beta", -2.0)

    def test_dimension_range_checked(self):
        with pytest.raises(ExplainError, match="out of range"):
            embedding_keywords(self.table(), 5)
