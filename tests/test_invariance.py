"""A row's output depends only on the row and on the fitted artifacts.

Each check computes an output for a batch of rows, then for each row alone
and for the rows shuffled, and requires the same bytes for every row. A
forest tree must not depend on the forest's size either, nor the forest's
grid cells on the number of worker processes. Not covered yet: the
predictions of linear, MLP and SVM models (a one-row product runs another
BLAS kernel than a batch one) and bertopic's projection.
"""

import numpy as np
import pytest

from dataprice.corpus import compose_text
from dataprice.evaluate import (fit_family, fit_representation, merge_config,
                                run_grid)
from dataprice.explain import shap_values
from dataprice.models import fit_forest
from dataprice.synth import generate_products
from dataprice.textrep import train_lda

CONFIG = merge_config({
    "max_terms": 60, "word2vec": {"d": 6, "epochs": 1},
    "logistic": {"epochs": 50}, "mlp": {"hidden": [5], "epochs": 20},
    "svm": {"gamma": 0.2}, "svr": {"gamma": 0.2, "max_iter": 300},
    # 12 trees: NumPy sums 8 or more values pairwise along a contiguous axis
    "forest": {"n_trees": 12}, "gbt": {"n_rounds": 5},
})
TASKS = ["regression", "classification"]


def _take(rows, idx):
    return rows[idx] if isinstance(rows, np.ndarray) else [rows[i] for i in idx]


def _parts(out):
    return [np.asarray(a) for a in (out if isinstance(out, tuple) else (out,))]


def assert_rows_stand_alone(f, rows):
    """f(rows) equals f of each row alone and f of the rows shuffled, byte
    for byte. f returns an array, or a tuple of arrays, with one leading
    entry per row."""
    whole = _parts(f(rows))
    for i in range(len(rows)):
        for a, b in zip(whole, _parts(f(_take(rows, [i])))):
            assert a[i:i + 1].tobytes() == b.tobytes(), "row %d alone" % i
    perm = np.random.default_rng(0).permutation(len(rows))
    for a, b in zip(whole, _parts(f(_take(rows, perm)))):
        assert a[perm].tobytes() == b.tobytes(), "shuffled rows"


def _data(task, n=90, p=8):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(n, p))
    y = X[:, 0] - 0.5 * X[:, 1] + np.sin(2.0 * X[:, 2])
    if task == "classification":
        y = np.digitize(y, np.quantile(y, [1 / 3, 2 / 3]))
    return X, y


def _fit(family, task):
    X, y = _data(task)
    return X, fit_family(family, X, y, task, 3, CONFIG, 11)


@pytest.fixture(scope="module")
def texts():
    return [compose_text(p) for p in generate_products(40, 2)]


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("family", ["linear", "mlp", "svm"])
def test_kernel_shap(family, task):
    # 8 columns and 32 coalitions: the kernel method samples its design
    X, model = _fit(family, task)
    if task == "classification":
        assert len(set(model.predict(X[:8]).tolist())) > 1
    assert_rows_stand_alone(
        lambda rows: shap_values(model, rows, X[40:46], n_samples=32, seed=5),
        X[:8])


@pytest.mark.parametrize("family, task", [
    ("cart", "regression"), ("cart", "classification"),
    ("forest", "regression"), ("forest", "classification"),
    ("gbt", "regression"), ("gbt", "classification")])  # one-vs-rest GBT
def test_tree_shap(family, task):
    X, model = _fit(family, task)
    assert_rows_stand_alone(lambda rows: shap_values(model, rows), X[:12])


@pytest.mark.parametrize("task", TASKS)
@pytest.mark.parametrize("family", ["cart", "forest", "gbt"])
def test_tree_predict(family, task):
    X, model = _fit(family, task)
    assert_rows_stand_alone(model.predict, X[:30])


@pytest.mark.parametrize("task", TASKS)
def test_forest_tree_does_not_depend_on_forest_size(task):
    # a tree draws its sample and its nodes' columns from its own RNG, and
    # the trees grown with it in one batch leave them alone
    X, y = _data(task)

    def fit(n_trees):
        return fit_forest(X, y, n_trees=n_trees, k_features=3, max_depth=6,
                          min_leaf=2, task=task, seed=11)

    whole = fit(25).trees
    for t in range(25):
        assert fit(t + 1).trees[t].params_dict() == whole[t].params_dict()


@pytest.mark.parametrize("task", TASKS)
def test_forest_grid_cells_do_not_depend_on_threads(task):
    products = generate_products(40, 2)
    one, two = (run_grid(products, ["bow"], ["forest"], task, CONFIG, seed=5,
                         k=2, workers=w) for w in (1, 2))
    assert not one.errors and not two.errors
    for metric in one.metrics:
        assert one.values[metric].tobytes() == two.values[metric].tobytes()


def test_lda_infer_theta(texts):
    model = train_lda(texts[:30], 3, iterations=20, seed=4, max_terms=60)
    assert_rows_stand_alone(model.infer_theta, texts[30:])


@pytest.mark.parametrize("name", ["bow", "tfidf", "word2vec"])
def test_text_transform(name, texts):
    _, transform = fit_representation(name, texts[:30], CONFIG, 4)
    assert_rows_stand_alone(lambda docs: transform(docs).values, texts[30:])
