import math
from collections import Counter

import numpy as np
import pytest

from dataprice import featsel
from dataprice.featsel import (DiscretizedColumn, SelectionStep, discretize,
                               mutual_information, mrmr_select)
from dataprice.matrix import FeatureMatrix


# ------------------------- independent twin implementations (oracles) ----

def oracle_discretize(x, n_bins=10):
    x = np.asarray(x, dtype=np.float64)
    qs = np.quantile(x, np.linspace(0, 1, n_bins + 1))
    inner = np.unique(qs[1:-1])
    raw = np.searchsorted(inner, x, side="left")
    uniq = sorted(set(raw.tolist()))
    remap = {v: i for i, v in enumerate(uniq)}
    return np.array([remap[v] for v in raw.tolist()])


def oracle_mi(a, b):
    """Plug-in mutual information in nats, computed with dictionaries."""
    n = len(a)
    joint = Counter(zip(a.tolist(), b.tolist()))
    pa = Counter(a.tolist())
    pb = Counter(b.tolist())
    total = 0.0
    for (u, v), c in joint.items():
        p = c / n
        total += p * math.log(p / ((pa[u] / n) * (pb[v] / n)))
    return total


def oracle_mrmr(values, y_labels, m, n_bins=10):
    """Greedy relevance-minus-mean-redundancy with lower-index tie-break."""
    cols = [oracle_discretize(values[:, j], n_bins)
            for j in range(values.shape[1])]
    rel = [oracle_mi(c, y_labels) for c in cols]
    selected, scores = [], []
    remaining = list(range(values.shape[1]))
    while len(selected) < m:
        best_j, best_score = None, None
        for j in remaining:
            red = (sum(oracle_mi(cols[j], cols[i]) for i in selected)
                   / len(selected)) if selected else 0.0
            s = rel[j] - red
            if best_score is None or s > best_score:
                best_score, best_j = s, j
        selected.append(best_j)
        scores.append(best_score)
        remaining.remove(best_j)
    return selected, scores


def reference_mrmr(values, target, m, n_bins=10, target_is_discrete=False):
    """mrmr_select's greedy loop as it was before the running redundancy: a
    cache of pair estimates, and each step re-sums every candidate's
    redundancy over the selected features. Same discretization and MI."""
    y = np.asarray(target)
    if target_is_discrete:
        labels = y.astype(np.int64) - y.min()
        tcol = DiscretizedColumn(labels, int(labels.max()) + 1,
                                 np.arange(labels.max() + 2, dtype=np.float64))
    else:
        tcol = discretize(y, n_bins)
    cols = [discretize(values[:, j], n_bins) for j in range(values.shape[1])]
    p = len(cols)
    m = min(m, p)
    relevance = np.array([mutual_information(c, tcol) for c in cols])
    steps, selected, remaining = [], [], list(range(p))
    pair_mi = {}

    def pmi(i, j):
        key = (min(i, j), max(i, j))
        if key not in pair_mi:
            pair_mi[key] = mutual_information(cols[i], cols[j])
        return pair_mi[key]

    while len(selected) < m:
        best_j, best = None, None
        for j in remaining:
            red = (sum(pmi(j, i) for i in selected) / len(selected)
                   if selected else 0.0)
            score = relevance[j] - red
            if best is None or score > best[0]:
                best, best_j = (score, relevance[j], red), j
        score, rel, red = best
        steps.append(SelectionStep(best_j, float(rel), float(red), float(score)))
        selected.append(best_j)
        remaining.remove(best_j)
    return steps


class TestDiscretize:
    def test_equal_frequency_bins(self):
        x = np.arange(100, dtype=float)
        d = discretize(x, 10)
        assert d.n_bins == 10
        counts = np.bincount(d.labels)
        assert counts.tolist() == [10] * 10

    def test_ties_share_a_bin(self):
        x = np.array([1.0] * 50 + [2.0] * 50)
        d = discretize(x, 10)
        assert d.n_bins == 2
        assert len(set(d.labels[:50])) == 1 and len(set(d.labels[50:])) == 1

    def test_constant_column_single_bin(self):
        d = discretize(np.full(20, 3.5), 10)
        assert d.n_bins == 1
        assert set(d.labels.tolist()) == {0}

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            discretize(np.array([1.0, np.nan]))

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.normal(size=73)
            assert np.array_equal(discretize(x, 10).labels, oracle_discretize(x))


def dc(labels):
    labels = np.asarray(labels, dtype=np.int64)
    return DiscretizedColumn(labels, int(labels.max()) + 1,
                             np.arange(labels.max() + 2, dtype=np.float64))


class TestMutualInformation:
    def test_hand_oracle_2x2(self):
        # joint counts [[2,1],[1,2]] over n=6
        a = dc([0, 0, 0, 1, 1, 1])
        b = dc([0, 0, 1, 0, 1, 1])
        expect = (2 * (2 / 6) * math.log((2 / 6) / (0.5 * 0.5))
                  + 2 * (1 / 6) * math.log((1 / 6) / (0.5 * 0.5)))
        assert mutual_information(a, b) == pytest.approx(expect, abs=1e-12)

    def test_identical_columns_give_entropy(self):
        a = dc([0, 0, 1, 1, 2, 2])
        expect = -3 * (1 / 3) * math.log(1 / 3)
        assert mutual_information(a, a) == pytest.approx(expect, abs=1e-12)

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(1)
        a = dc(rng.integers(0, 2, 5000))
        b = dc(rng.integers(0, 2, 5000))
        assert mutual_information(a, b) < 0.01

    def test_symmetry_and_nonnegativity(self):
        rng = np.random.default_rng(2)
        a = dc(rng.integers(0, 4, 200))
        b = dc(rng.integers(0, 3, 200))
        assert mutual_information(a, b) == pytest.approx(mutual_information(b, a))
        assert mutual_information(a, b) >= 0.0


class TestMrmr:
    def make_data(self, seed=0, n=200, p=10):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, p))
        X[:, 3] = X[:, 0] + 0.05 * rng.normal(size=n)  # redundant with col 0
        y = X[:, 0] + 0.5 * X[:, 5] + 0.1 * rng.normal(size=n)
        return X, y

    def test_matches_bruteforce_twin(self):
        X, y = self.make_data()
        fm = FeatureMatrix(X, ["f%d" % j for j in range(X.shape[1])])
        trace = mrmr_select(fm, y, 6)
        y_labels = oracle_discretize(y, 10)
        ids, scores = oracle_mrmr(X, y_labels, 6)
        assert trace.selected == ids
        for step, s in zip(trace.steps, scores):
            assert step.score == pytest.approx(s, abs=1e-10)

    def test_redundant_feature_penalized(self):
        X, y = self.make_data()
        fm = FeatureMatrix(X, ["f%d" % j for j in range(X.shape[1])])
        trace = mrmr_select(fm, y, 3)
        first = trace.selected[0]
        assert first in (0, 3)
        twin = 3 if first == 0 else 0
        assert twin not in trace.selected  # its redundancy outweighs relevance

    def test_discrete_target(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 5, 150)
        X = rng.normal(size=(150, 4))
        X[:, 2] = y + 0.01 * rng.normal(size=150)
        fm = FeatureMatrix(X, ["a", "b", "c", "d"])
        trace = mrmr_select(fm, y, 1, target_is_discrete=True)
        assert trace.selected == [2]

    def test_tie_break_lower_index(self):
        # two identical columns: identical scores, lower index must win
        x = np.repeat(np.arange(10.0), 5)
        X = np.column_stack([x, x])
        fm = FeatureMatrix(X, ["left", "right"])
        trace = mrmr_select(fm, x, 1)
        assert trace.selected == [0]

    def test_m_larger_than_p_selects_all(self):
        X = np.random.default_rng(4).normal(size=(50, 3))
        fm = FeatureMatrix(X, ["a", "b", "c"])
        trace = mrmr_select(fm, X[:, 0], 99)
        assert sorted(trace.selected) == [0, 1, 2]

    @staticmethod
    def bits(steps):
        return [(s.feature, s.relevance.hex(), s.redundancy.hex(), s.score.hex())
                for s in steps]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("discrete", [False, True])
    @pytest.mark.parametrize("m", [1, 4, 9, 30])
    def test_matches_reference_loop_bit_for_bit(self, seed, discrete, m):
        # few levels and copied columns, so that scores tie
        rng = np.random.default_rng(seed)
        n, p = 60, 12
        X = rng.integers(0, 1 + seed % 4 + 1, size=(n, p)).astype(float)
        X[:, 5] = X[:, 2]
        X[:, 9] = X[:, 2]
        X[:, 7] = 3.0
        y = rng.integers(0, 4, n) if discrete else X[:, 2] + rng.normal(size=n)
        fm = FeatureMatrix(X, ["f%d" % j for j in range(p)])
        trace = mrmr_select(fm, y, m, n_bins=5, target_is_discrete=discrete)
        ref = reference_mrmr(X, y, m, n_bins=5, target_is_discrete=discrete)
        assert len(trace.steps) == min(m, p)
        assert self.bits(trace.steps) == self.bits(ref)

    @pytest.mark.parametrize("m", [1, 2, 7, 12, 40])
    def test_each_pair_is_estimated_once(self, m, monkeypatch):
        X, y = self.make_data(p=12)
        fm = FeatureMatrix(X, ["f%d" % j for j in range(X.shape[1])])
        calls = []
        monkeypatch.setattr(featsel, "mutual_information",
                            lambda u, v: calls.append(1) or mutual_information(u, v))
        trace = mrmr_select(fm, y, m)
        p, m = 12, min(m, 12)
        # relevance of every column, then each later step's candidates
        # against the last pick
        assert len(calls) == p + sum(p - s for s in range(1, m))
        assert len(trace.steps) == m

    def test_trace_csv(self, tmp_path):
        X, y = self.make_data()
        fm = FeatureMatrix(X, ["f%d" % j for j in range(X.shape[1])])
        trace = mrmr_select(fm, y, 3)
        path = tmp_path / "sel.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,feature_index,feature,relevance,redundancy,score"
        assert len(lines) == 4
