import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dataprice import featsel
from dataprice.corpus import (TargetSpec, compose_text, make_targets,
                              structured_matrix)
from dataprice.evaluate import fit_representation, merge_config, mix_seed
from dataprice.featsel import (DiscretizedColumn, SelectionStep, discretize,
                               mutual_information, mrmr_select)
from dataprice.matrix import FeatureMatrix
from dataprice.synth import generate_products


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


def reference_discretize(x, n_bins=10):
    """discretize as it was before matrices, one column at a time: (labels,
    n_bins, edges)."""
    qs = np.quantile(x, np.linspace(0, 1, n_bins + 1))
    inner = np.unique(qs[1:-1])
    uniq, labels = np.unique(np.searchsorted(inner, x, side="left"),
                             return_inverse=True)
    return labels, len(uniq), np.concatenate([[x.min()], inner, [x.max()]])


def reference_mi(a, nu, b, nv):
    """mutual_information as it was before stacks, one pair of columns at a
    time: labels a with nu bins against labels b with nv bins."""
    joint = np.bincount(a * nv + b, minlength=nu * nv).reshape(nu, nv) / len(a)
    pu = joint.sum(axis=1)
    pv = joint.sum(axis=0)
    mask = joint > 0
    ratio = joint[mask] / (pu[:, None] * pv[None, :])[mask]
    return float(np.sum(joint[mask] * np.log(ratio)))


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
        calls = []  # the columns of each call's stack
        monkeypatch.setattr(featsel, "mutual_information",
                            lambda u, v: calls.append(len(u.labels))
                            or mutual_information(u, v))
        trace = mrmr_select(fm, y, m)
        p, m = 12, min(m, 12)
        # one call for the relevance of every column, then one per later
        # step for its candidates against the last pick
        assert len(calls) == m
        assert sum(calls) == p + sum(p - s for s in range(1, m))
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


def random_stack(rng, n, bins):
    """A stack of n-row columns with the given bin counts. Each column uses
    a random number of its bins, so some have empty top bins and some are
    constant."""
    labels = np.stack([rng.integers(0, rng.integers(1, k + 1), n) for k in bins])
    return DiscretizedColumn(labels, np.array(bins),
                             [np.arange(k + 1.0) for k in bins])


class TestStacks:
    """A stack's estimates and bins have the bits of one column's, and those
    of the estimator and binning as they were before stacks."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=400),
           st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                    max_size=6),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_stack_mi_is_each_columns_bit_for_bit(self, n, bins, seed):
        s = random_stack(np.random.default_rng(seed), n, bins)
        # every ordered pair: each column against every column of the stack
        for j in range(len(bins)):
            v = s.take(j)
            batch = mutual_information(s, v)
            for i in range(len(bins)):
                expect = reference_mi(s.labels[i], bins[i], s.labels[j], bins[j])
                assert batch[i].hex() == expect.hex()
                assert mutual_information(s.take(i), v).hex() == expect.hex()

    @pytest.mark.parametrize("seed", range(8))
    def test_lone_v_bin(self, seed):
        # against one v bin NumPy sums pairwise, where padding with zeros
        # would move the bits; the stack mixes columns of fewer than 8 bins
        # with wider ones
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 900))
        s = random_stack(rng, n, [3, 5, 7, 12, 10, 2, 6, 9, 4, 11])
        v = DiscretizedColumn(np.zeros(n, dtype=np.int64), 1, np.zeros(2))
        batch = mutual_information(s, v)
        for i, k in enumerate(s.n_bins):
            assert batch[i].hex() == reference_mi(s.labels[i], k, v.labels, 1).hex()

    def test_stack_shapes(self):
        s = random_stack(np.random.default_rng(0), 30, [2, 4, 3])
        assert mutual_information(s, s.take(1)).shape == (3,)
        assert isinstance(mutual_information(s.take(0), s.take(1)), float)
        with pytest.raises(ValueError, match="length"):
            mutual_information(s, DiscretizedColumn(np.zeros(29), 1, np.zeros(2)))
        for labels in ([[0, 1], [0, 2]], [[0, 1], [-1, 0]]):
            with pytest.raises(ValueError, match="out of range"):
                DiscretizedColumn(labels, np.array([2, 2]), s.edges[:2])

    def test_take_skips_the_range_check(self, monkeypatch):
        s = random_stack(np.random.default_rng(0), 30, [2, 4, 3])
        checks = []
        monkeypatch.setattr(DiscretizedColumn, "__post_init__",
                            lambda col: checks.append(col))
        one, two = s.take(1), s.take(np.array([2, 0]))
        assert not checks
        assert np.array_equal(one.labels, s.labels[1]) and one.n_bins == 4
        assert np.array_equal(two.labels, s.labels[[2, 0]])
        assert two.n_bins.tolist() == [3, 2] and len(two.edges) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    def test_matrix_discretize_is_each_columns(self, n, c, n_bins, seed):
        # ties: columns drawn from pools of 1 to 20 values, so with many
        # duplicates, beside one continuous column
        rng = np.random.default_rng(seed)
        X = np.column_stack(
            [rng.choice(np.round(rng.normal(size=rng.integers(1, 21)), 1), n)
             for _ in range(c)] + [rng.normal(size=n)])
        stack = discretize(X, n_bins)
        assert stack.labels.shape == (c + 1, n)
        for j in range(c + 1):
            labels, nb, edges = reference_discretize(X[:, j], n_bins)
            one = discretize(X[:, j], n_bins)
            for got in (stack.take(j), one):
                assert np.array_equal(got.labels, labels)
                assert got.n_bins == nb and isinstance(got.n_bins, int)
                assert np.array_equal(got.edges, edges)

    def test_discretize_rejects(self):
        with pytest.raises(ValueError, match="no rows"):
            discretize(np.zeros((0, 3)))
        with pytest.raises(ValueError, match="finite"):
            discretize(np.array([[1.0, 2.0], [np.inf, 0.0]]))
        with pytest.raises(ValueError, match="dimensions"):
            discretize(np.zeros((2, 2, 2)))


@pytest.fixture(scope="module")
def readme_corpus():
    """The README's corpus (600 synthetic listings at seed 42): bow plus the
    structured columns, and the regression and classification targets."""
    products = generate_products(600, mix_seed(42, "synth"))
    bow, _ = fit_representation("bow", [compose_text(p) for p in products],
                                merge_config({}), mix_seed(42, "bow"))
    return (bow.hstack(structured_matrix(products)),
            make_targets(products, TargetSpec("regression")),
            make_targets(products, TargetSpec("classification")))


class TestReadmeCorpus:
    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_matches_reference_loop(self, readme_corpus, task):
        feats, y_reg, y_cls = readme_corpus
        discrete = task == "classification"
        y = y_cls if discrete else y_reg
        assert feats.values.shape == (600, 160)
        m = 160
        trace = mrmr_select(feats, y, m, target_is_discrete=discrete)
        ref = reference_mrmr(feats.values, y, m, target_is_discrete=discrete)
        assert trace.steps == ref


class TestTargetChecks:
    """A discrete target is checked where it enters mRMR."""

    def fm(self, n=6):
        X = np.random.default_rng(0).normal(size=(n, 3))
        return FeatureMatrix(X, ["a", "b", "c"])

    def test_fractional_target_rejected(self):
        with pytest.raises(ValueError, match="whole numbers.*2.2"):
            mrmr_select(self.fm(), [0.0, 1.0, 2.2, 0.0, 1.0, 3.0], 2,
                        target_is_discrete=True)

    def test_nan_target_rejected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no cast warning first
            with pytest.raises(ValueError, match="finite"):
                mrmr_select(self.fm(), [0.0, 1.0, np.nan, 0.0, 1.0, 3.0], 2,
                            target_is_discrete=True)

    @pytest.mark.parametrize("discrete", [False, True])
    def test_zero_rows_rejected(self, discrete):
        fm = FeatureMatrix(np.zeros((0, 3)), ["a", "b", "c"])
        with pytest.raises(ValueError, match="at least one row"):
            mrmr_select(fm, np.zeros(0), 2, target_is_discrete=discrete)

    def test_sparse_classes_cost_one_bin_each(self):
        # a bin per class that occurs, not per value up to the largest
        a = mrmr_select(self.fm(), np.array([0, 10 ** 12, 0, 10 ** 12, 5, 5]), 3)
        b = mrmr_select(self.fm(), np.array([0, 2, 0, 2, 1, 1]), 3)
        assert a.steps == b.steps

    def test_integer_target_binned_when_not_discrete(self):
        # whole-number prices, say: an explicit False bins them by
        # frequency, where classes would make each relevance log(10)
        rng = np.random.default_rng(0)
        fm = FeatureMatrix(rng.normal(size=(200, 5)), list("abcde"))
        y = rng.integers(0, 100000, 200)
        a = mrmr_select(fm, y, 5, target_is_discrete=False)
        b = mrmr_select(fm, y.astype(float), 5)
        assert a.steps == b.steps
        assert all(s.relevance < 1.0 for s in a.steps)
        c = mrmr_select(fm, y, 5)  # by default an integer type is classes
        assert [s.relevance for s in c.steps] == pytest.approx([math.log(10)] * 5)

    def test_whole_floats_are_classes(self):
        y = np.array([0, 1, 2, 0, 1, 3])
        a = mrmr_select(self.fm(), y, 3)
        b = mrmr_select(self.fm(), y.astype(float), 3, target_is_discrete=True)
        assert a.steps == b.steps
