import faulthandler
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from dataprice import evaluate
from dataprice.evaluate import (ERROR_METRICS, FAMILIES, N_TIERS, SCORE_METRICS,
                                CVData, ExperimentReport, MetricError,
                                _map_units, _rank, binary_auc, cell_metrics,
                                classification_metrics, feature_curve,
                                fit_family, fit_representation, kfold_split,
                                merge_config, mix_seed, regression_metrics,
                                run_grid)
from dataprice.featsel import mrmr_select
from dataprice.models import ModelError, OvREnsemble, StandardizedModel
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

    def test_failure_message_leads_with_its_type(self, products):
        # a diverging cell raises ModelError, and a representation that
        # cannot be fitted fails its whole unit with a plain ValueError
        cfg = dict(self.CFG, mlp={"hidden": [4], "epochs": 30, "lr": 1e9},
                   bertopic={"n_clusters": 50, "reduce_dims": 2})
        rep = run_grid(products, ["bow", "bertopic"], ["mlp"],
                       task="regression", config=cfg, seed=0, k=3)
        assert sorted(e[:3] for e in rep.errors) == (
            [("bertopic", "*", f) for f in range(3)]
            + [("bow", "mlp", f) for f in range(3)])
        for rep_name, _, _, msg in rep.errors:
            assert msg.startswith("ValueError: n_clusters exceeds"
                                  if rep_name == "bertopic"
                                  else "ModelError: NaN/inf loss"), msg

    def test_empty_axes_rejected(self, products):
        with pytest.raises(ValueError):
            run_grid(products, [], ["linear"])

    def test_determinism(self, products):
        r1 = run_grid(products, ["bow"], ["gbt"], task="regression",
                      config=self.CFG, seed=3, k=5)
        r2 = run_grid(products, ["bow"], ["gbt"], task="regression",
                      config=self.CFG, seed=3, k=5)
        assert np.array_equal(r1.values["MSE"], r2.values["MSE"])


class TestSharedTable:
    """word2vec and bertopic read one skip-gram table per fold, fitted under
    word2vec's seed label whatever else the grid holds."""

    def test_one_skipgram_per_fold(self, products, monkeypatch):
        seeds, real = [], evaluate.train_skipgram

        def train_skipgram(*args, **kwargs):
            seeds.append(kwargs["seed"])
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluate, "train_skipgram", train_skipgram)
        k = 3
        run_grid(products, ["word2vec", "bertopic"], ["linear"],
                 config=TestGrid.CFG, seed=0, k=k)
        assert seeds == [mix_seed(0, "word2vec", f) for f in range(k)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_do_not_depend_on_the_grid(self, products, workers):
        grid = partial(run_grid, products, families=["linear", "cart"],
                       config=TestGrid.CFG, seed=0, k=3, workers=workers)
        both = grid(["word2vec", "bertopic"])
        repeated = grid(["bertopic", "word2vec", "bertopic"])
        for i, rep in enumerate(both.representations):
            alone = grid([rep])
            for m in both.metrics:
                assert alone.values[m][0].tobytes() == both.values[m][i].tobytes()
                for j in np.flatnonzero(np.array(repeated.representations) == rep):
                    assert (repeated.values[m][j].tobytes()
                            == both.values[m][i].tobytes())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_errors_merge_in_representation_and_fold_order(self, products,
                                                           workers):
        cfg = dict(TestGrid.CFG, mlp={"hidden": [4], "epochs": 30, "lr": 1e9},
                   bertopic={"n_clusters": 50, "reduce_dims": 2})
        rep = run_grid(products, ["bertopic", "bow", "word2vec"], ["mlp"],
                       config=cfg, seed=0, k=3, workers=workers)
        assert [e[:3] for e in rep.errors] == (
            [("bertopic", "*", f) for f in range(3)]
            + [(r, "mlp", f) for r in ("bow", "word2vec") for f in range(3)])

    def test_curve_fold_uses_the_grids_bertopic_features(self, products,
                                                         monkeypatch):
        seen, real = [], evaluate.fit_representation

        def fit_representation(name, *args, **kwargs):
            feats, transform = real(name, *args, **kwargs)
            if name == "bertopic":
                seen.append(feats.values.tobytes())
            return feats, transform

        monkeypatch.setattr(evaluate, "fit_representation", fit_representation)
        run_grid(products, ["word2vec", "bertopic"], ["linear"],
                 config=TestGrid.CFG, seed=0, k=3)
        grid, seen[:] = list(seen), []
        feature_curve(products, "bertopic", "linear", [1, 2],
                      config=TestGrid.CFG, seed=0, k=3)
        assert len(grid) == 3 and seen == grid


class TestEvaluateCell:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_scores_finite(self, family, task):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = 3.0 + X @ np.array([1.0, -0.5, 0.25, 0.0]) + 0.1 * rng.normal(size=60)
        if task == "classification":
            y = np.searchsorted(np.quantile(y, [0.2, 0.4, 0.6, 0.8]), y)
        model = fit_family(family, X[:45], y[:45], task, N_TIERS,
                           merge_config(TestGrid.CFG), 1)
        cell = cell_metrics(model, X[45:], y[45:], task)
        expected = ERROR_METRICS if task == "regression" else SCORE_METRICS
        assert set(cell) == set(expected)
        assert all(np.isfinite(v) for v in cell.values())


class TestFitFamily:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_model_records_its_config_section(self, family, task):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 4))
        y = X[:, 0] + 0.1 * rng.normal(size=40)
        if task == "classification":
            y = np.searchsorted(np.quantile(y, [0.2, 0.4, 0.6, 0.8]), y)
        cfg = merge_config(TestGrid.CFG)
        model = evaluate.fit_family(family, X, y, task, 5, cfg, seed=1)
        if isinstance(model, OvREnsemble):
            model = model.members[0]
        if isinstance(model, StandardizedModel):
            model = model.inner
        by_task = {"linear": ("linear", "logistic"), "svm": ("svr", "svm")}
        section = cfg[by_task.get(family, (family, family))[task == "classification"]]
        assert {key: model.hyperparams.get(key) for key in section} == section


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

    @pytest.mark.parametrize("m_values", [[0, 2], []])
    def test_m_values_must_be_positive(self, m_values):
        with pytest.raises(ValueError, match="m_values"):
            feature_curve(generate_products(20, seed=0), "bow", "gbt", m_values)

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_batched_gbt_rows_equal_one_cell_per_m(self, products, task):
        """The curve fits a fold's gbt models in one call; its rows equal
        the means of one fit and score per m on that fold's columns."""
        m_values, k, seed = [1, 2, 2, 5, 10 ** 4], 3, 4
        with pytest.warns(UserWarning, match="clamp"):
            curve = feature_curve(products, "bow", "gbt", m_values, task=task,
                                  config=TestGrid.CFG, seed=seed, k=k)
        cfg = merge_config(TestGrid.CFG)
        data = CVData.build(products, task, seed, k)
        cells = [[] for _ in m_values]  # the folds' metrics of each m
        for fold in range(k):
            train, test = data.plan.train_test(fold)
            feats, transform = fit_representation(
                "bow", [data.texts[i] for i in train], cfg,
                mix_seed(seed, "bow", fold))
            ftr = feats.hstack(data.struct.rows(train))
            fte = transform([data.texts[i] for i in test]).hstack(
                data.struct.rows(test)).values
            order = mrmr_select(ftr, data.y[train], max(m_values),
                                target_is_discrete=task == "classification"
                                ).selected
            for m, folds in zip(m_values, cells):
                cols = order[:m]
                model = fit_family("gbt", ftr.values[:, cols], data.y[train],
                                   task, N_TIERS, cfg,
                                   mix_seed(seed, "bow", fold, "gbt", m))
                folds.append(cell_metrics(model, fte[:, cols], data.y[test], task))
        assert curve.rows == [
            (m, {name: float(np.mean([c[name] for c in folds]))
                 for name in data.metrics})
            for m, folds in zip(m_values, cells)]


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
        assert one.errors == two.errors == [
            ("tfidf", "linear", 2, "ModelError: planted failure")]
        for m in one.metrics:
            assert one.values[m].tobytes() == two.values[m].tobytes()
            assert one.mean[m].tobytes() == two.mean[m].tobytes()
            assert one.rank[m].tolist() == two.rank[m].tolist()

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=pytest.mark.skipif(
        not POOLED, reason="needs fork and two CPUs"))])
    def test_programming_error_raises_out_of_the_grid(self, products, monkeypatch,
                                                      workers):
        def fit_family(family, X, y, task, n_classes, cfg, seed):
            raise TypeError("planted bug")

        # the forked workers inherit the patch
        monkeypatch.setattr(evaluate, "fit_family", fit_family)
        with pytest.raises(TypeError, match="planted bug"):
            run_grid(products, ["bow"], ["linear"], task="regression",
                     config=TestGrid.CFG, seed=0, k=3, workers=workers)
        assert not multiprocessing.active_children()

    def test_failed_curve_cell_names_its_unit(self, products, monkeypatch):
        real, planted = evaluate.fit_family, mix_seed(0, "tfidf", 1, "cart", 3)

        def fit_family(family, X, y, task, n_classes, cfg, seed):
            if seed == planted:
                raise ModelError("planted failure")
            return real(family, X, y, task, n_classes, cfg, seed)

        monkeypatch.setattr(evaluate, "fit_family", fit_family)
        with pytest.raises(ValueError, match="tfidf / cart / fold 1 failed: "
                                             "ModelError: planted failure"):
            feature_curve(products, "tfidf", "cart", [1, 3], task="classification",
                          config=TestGrid.CFG, seed=0, k=3)

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
