import faulthandler
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from dataprice import evaluate
from dataprice.evaluate import (ERROR_METRICS, FAMILIES, SCORE_METRICS,
                                ExperimentReport, MetricError, _map_units,
                                _rank, binary_auc, classification_metrics,
                                evaluate_cell, feature_curve, kfold_split,
                                merge_config, mix_seed, regression_metrics,
                                run_grid)
from dataprice.models import ModelError
from dataprice.synth import generate_products

# the pooled path needs fork and a second CPU; elsewhere it runs serially
POOLED = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
          and len(os.sched_getaffinity(0)) >= 2)


def brute_force_auc(y, s):
    """Pairwise counting with half credit for ties."""
    pos = [si for yi, si in zip(y, s) if yi == 1]
    neg = [si for yi, si in zip(y, s) if yi == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestKFold:
    def test_partition_and_balance(self):
        plan = kfold_split(103, 5, seed=0)
        seen = np.zeros(103, dtype=int)
        sizes = []
        for f in range(5):
            train, test = plan.train_test(f)
            seen[test] += 1
            sizes.append(len(test))
            assert len(set(train) & set(test)) == 0
            assert len(train) + len(test) == 103
        assert np.all(seen == 1)
        assert max(sizes) - min(sizes) <= 1

    def test_seed_changes_assignment(self):
        a = kfold_split(50, 5, seed=0).fold_index
        b = kfold_split(50, 5, seed=1).fold_index
        assert not np.array_equal(a, b)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            kfold_split(3, 5)


class TestRegressionMetrics:
    def test_fixture_oracle(self):
        out = regression_metrics([100.0, 200.0], [110.0, 180.0])
        assert out["MSE"] == pytest.approx(250.0)
        assert out["RMSE"] == pytest.approx(15.8114, abs=1e-4)
        assert out["MAPE"] == pytest.approx(0.1)

    def test_zero_target_mape_error(self):
        with pytest.raises(MetricError, match="zero"):
            regression_metrics([0.0, 1.0], [1.0, 1.0])

    def test_perfect_prediction(self):
        out = regression_metrics([1.0, 2.0], [1.0, 2.0])
        assert out["MSE"] == 0.0 and out["RMSE"] == 0.0 and out["MAPE"] == 0.0


class TestClassificationMetrics:
    def test_auc_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(10, 200))
            y = rng.integers(0, 5, n)
            if len(np.unique(y)) < 2:
                continue
            scores = np.round(rng.normal(size=(n, 5)), 1)  # force ties
            out = classification_metrics(y, scores, np.argmax(scores, axis=1))
            expect = []
            for c in np.unique(y):
                yc = (y == c).astype(int)
                if 0 < yc.sum() < n:
                    expect.append(brute_force_auc(yc, scores[:, c]))
            assert out["AUC"] == pytest.approx(np.mean(expect), abs=1e-12)

    def test_accuracy_and_f1_hand_case(self):
        y = np.array([0, 0, 1, 1, 2])
        yhat = np.array([0, 1, 1, 1, 0])
        scores = np.eye(3)[yhat]
        out = classification_metrics(y, scores, yhat)
        assert out["Accuracy"] == pytest.approx(3 / 5)
        # class 0: P=1/2, R=1/2, F1=1/2; class 1: P=2/3, R=1, F1=4/5
        # class 2: no predictions and no hits -> F1 = 0
        assert out["F1"] == pytest.approx((0.5 + 0.8 + 0.0) / 3)

    def test_binary_auc_tie_credit(self):
        y = np.array([1, 0, 1, 0])
        s = np.array([0.5, 0.5, 0.9, 0.1])
        assert binary_auc(y, s) == pytest.approx(brute_force_auc(y, s))

    def test_auc_needs_both_classes(self):
        with pytest.raises(MetricError):
            binary_auc(np.ones(4, dtype=int), np.arange(4.0))


class TestRank:
    def test_ascending_for_errors(self):
        ranks = _rank(np.array([0.3, 0.1, 0.2]), ascending=True)
        assert ranks.tolist() == [3, 1, 2]

    def test_descending_for_scores(self):
        ranks = _rank(np.array([0.3, 0.1, 0.2]), ascending=False)
        assert ranks.tolist() == [1, 3, 2]

    def test_nan_ranks_last(self):
        ranks = _rank(np.array([0.3, np.nan, 0.2]), ascending=True)
        assert ranks[1] == 3


@pytest.fixture(scope="module")
def products():
    return generate_products(60, seed=1)


class TestGrid:
    CFG = {"max_terms": 60, "word2vec": {"d": 8, "epochs": 1},
           "lda": {"n_topics": 3, "iterations": 15},
           "bertopic": {"n_clusters": 3, "reduce_dims": 2},
           "mlp": {"hidden": [4], "epochs": 30},
           "logistic": {"epochs": 60},
           "forest": {"n_trees": 5}, "gbt": {"n_rounds": 5},
           "svr": {"max_iter": 300}}

    def test_regression_grid_shape_and_ranks(self, products):
        rep = run_grid(products, ["bow", "tfidf"], ["linear", "gbt"],
                       task="regression", config=self.CFG, seed=0, k=5)
        assert rep.metrics == ["MSE", "RMSE", "MAPE"]
        assert rep.mean_label == "ME"
        for m in rep.metrics:
            assert rep.values[m].shape == (2, 2)
            assert sorted(rep.rank[m].tolist()) == [1, 2]
            # rank 1 must be the lowest mean error
            best = rep.representations[np.argmin(rep.mean[m])]
            assert rep.representations[rep.rank[m].tolist().index(1)] == best
        assert not rep.errors

    def test_classification_grid(self, products):
        rep = run_grid(products, ["bow"], ["cart", "forest"],
                       task="classification", config=self.CFG, seed=0, k=5)
        assert rep.metrics == ["Accuracy", "AUC", "F1"]
        assert rep.mean_label == "MR"
        for m in rep.metrics:
            v = rep.values[m]
            assert np.all((v >= 0) & (v <= 1))
        # rank 1 is the highest mean score
        assert rep.rank["Accuracy"][np.argmax(rep.mean["Accuracy"])] == 1
        assert not rep.errors

    def test_report_csv_and_text(self, products, tmp_path):
        rep = run_grid(products, ["bow"], ["linear"], task="regression",
                       config=self.CFG, seed=0, k=5)
        path = tmp_path / "r.csv"
        rep.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,method,linear,ME,Rank"
        assert len(lines) == 1 + 3  # header + one row per metric
        text = rep.to_text()
        assert "== MSE ==" in text and "Rank" in text

    def test_cell_failure_recorded_not_raised(self, products):
        # k too large for MAPE? instead: break a family via impossible config
        cfg = dict(self.CFG)
        cfg["mlp"] = {"hidden": [4], "epochs": 30, "lr": 1e9, "batch_size": 32}
        rep = run_grid(products, ["bow"], ["mlp"], task="regression",
                       config=cfg, seed=0, k=5)
        assert rep.errors
        assert np.all(np.isnan(rep.values["MSE"]))

    def test_empty_axes_rejected(self, products):
        with pytest.raises(ValueError):
            run_grid(products, [], ["linear"])

    def test_determinism(self, products):
        r1 = run_grid(products, ["bow"], ["gbt"], task="regression",
                      config=self.CFG, seed=3, k=5)
        r2 = run_grid(products, ["bow"], ["gbt"], task="regression",
                      config=self.CFG, seed=3, k=5)
        assert np.array_equal(r1.values["MSE"], r2.values["MSE"])


class TestEvaluateCell:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_scores_finite(self, family, task):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = 3.0 + X @ np.array([1.0, -0.5, 0.25, 0.0]) + 0.1 * rng.normal(size=60)
        if task == "classification":
            y = np.searchsorted(np.quantile(y, [0.2, 0.4, 0.6, 0.8]), y)
        cell = evaluate_cell(family, X[:45], y[:45], X[45:], y[45:], task,
                             merge_config(TestGrid.CFG), seed=1)
        expected = ERROR_METRICS if task == "regression" else SCORE_METRICS
        assert set(cell) == set(expected)
        assert all(np.isfinite(v) for v in cell.values())


class TestCurve:
    def test_monotone_setup_and_clamping(self):
        products = generate_products(60, seed=2)
        cfg = dict(TestGrid.CFG)
        with pytest.warns(UserWarning, match="clamp"):
            curve = feature_curve(products, "bow", "gbt", [2, 5, 10**4],
                                  task="regression", config=cfg, seed=0, k=5)
        assert [m for m, _ in curve.rows] == [2, 5, 10**4]
        for _, vals in curve.rows:
            assert set(vals) == {"MSE", "RMSE", "MAPE"}

    def test_m_values_must_ascend(self):
        with pytest.raises(ValueError):
            feature_curve(generate_products(20, seed=0), "bow", "gbt", [5, 2])


def _pid(unit):
    return os.getpid()


class TestPool:
    @pytest.mark.skipif(not POOLED, reason="needs fork and two CPUs")
    def test_units_run_in_worker_processes_in_order(self):
        assert _map_units(_pid, (), [0, 1, 2, 3], 2)[0] != os.getpid()
        assert _map_units(divmod, (7,), [2, 3, 4], 2) == [(3, 1), (2, 1), (1, 3)]
        assert _map_units(_pid, (), [0, 1], 1) == [os.getpid()] * 2

    def test_grid_same_at_one_and_two_workers(self, products, monkeypatch):
        real, planted = evaluate.fit_family, mix_seed(0, "tfidf", 2, "linear")

        def fit_family(family, X, y, task, n_classes, cfg, seed):
            if seed == planted:
                raise ModelError("planted failure")
            return real(family, X, y, task, n_classes, cfg, seed)

        monkeypatch.setattr(evaluate, "fit_family", fit_family)
        one, two = (run_grid(products, ["bow", "tfidf"], ["linear", "cart"],
                             task="regression", config=TestGrid.CFG, seed=0,
                             k=3, workers=w) for w in (1, 2))
        assert not multiprocessing.active_children()  # the pool is gone
        assert one.errors == two.errors == [("tfidf", "linear", 2, "planted failure")]
        for m in one.metrics:
            assert one.values[m].tobytes() == two.values[m].tobytes()
            assert one.mean[m].tobytes() == two.mean[m].tobytes()
            assert one.rank[m].tolist() == two.rank[m].tolist()

    def test_curve_same_at_one_and_two_workers(self, products):
        one, two = (feature_curve(products, "tfidf", "cart", [1, 3, 6],
                                  task="classification", config=TestGrid.CFG,
                                  seed=0, k=3, workers=w) for w in (1, 2))
        assert one.rows == two.rows

    @pytest.mark.skipif(not POOLED, reason="needs fork and two CPUs")
    def test_dead_worker_raises_instead_of_hanging(self, products, monkeypatch):
        real = evaluate.fit_representation

        def fit_representation(name, *args):
            if name == "tfidf":
                os._exit(3)
            return real(name, *args)

        # the forked workers inherit the patch
        monkeypatch.setattr(evaluate, "fit_representation", fit_representation)
        # a hang ends the test run with a traceback instead of blocking it
        faulthandler.dump_traceback_later(120, exit=True)
        try:
            with pytest.raises(BrokenProcessPool):
                run_grid(products, ["bow", "tfidf"], ["linear"], task="regression",
                         config=TestGrid.CFG, seed=0, k=3, workers=2)
        finally:
            faulthandler.cancel_dump_traceback_later()


class TestMixSeed:
    def test_stable_and_distinct(self):
        assert mix_seed(1, "bow", 0) == mix_seed(1, "bow", 0)
        assert mix_seed(1, "bow", 0) != mix_seed(1, "bow", 1)
        assert mix_seed(1, "bow", 0) != mix_seed(2, "bow", 0)
