import itertools

import numpy as np
import pytest

from dataprice.textrep import tokenize, topic_features, train_lda
from dataprice.textrep.lda import _draw, _gibbs

TOPIC_A = ["apple", "banana", "cherry", "grape", "melon", "plum"]
TOPIC_B = ["engine", "motor", "wheel", "brake", "gear", "axle"]


def planted_corpus(n_docs, seed, doc_len=12):
    """Documents drawn from one of two disjoint-vocabulary topics."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        words = TOPIC_A if rng.random() < 0.5 else TOPIC_B
        docs.append(" ".join(rng.choice(words, size=doc_len)))
    return docs


def best_aligned_tv(phi, terms):
    """Mean total-variation distance to the true topic-word distributions
    under the better of the two topic alignments."""
    true = np.zeros((2, len(terms)))
    for t, words in enumerate((TOPIC_A, TOPIC_B)):
        for w in words:
            if w in terms:
                true[t, terms.index(w)] = 1.0 / len(words)

    def tv(p, q):
        return 0.5 * float(np.sum(np.abs(p - q)))

    direct = (tv(phi[0], true[0]) + tv(phi[1], true[1])) / 2
    flipped = (tv(phi[0], true[1]) + tv(phi[1], true[0])) / 2
    return min(direct, flipped)


class TestGibbs:
    def test_distribution_rows_sum_to_one(self):
        model = train_lda(planted_corpus(50, 0), 2, iterations=30, seed=0)
        assert np.max(np.abs(model.phi.sum(axis=1) - 1.0)) <= 1e-8
        assert np.max(np.abs(model.theta.sum(axis=1) - 1.0)) <= 1e-8
        assert np.all(model.phi >= 0) and np.all(model.theta >= 0)

    def test_deterministic_given_seed(self):
        docs = planted_corpus(30, 1)
        m1 = train_lda(docs, 2, iterations=20, seed=4)
        m2 = train_lda(docs, 2, iterations=20, seed=4)
        assert np.array_equal(m1.phi, m2.phi)
        assert np.array_equal(m1.theta, m2.theta)

    def test_planted_topics_recovered(self):
        docs = planted_corpus(200, 2)
        model = train_lda(docs, 2, alpha=0.5, iterations=120, seed=0)
        assert best_aligned_tv(model.phi, model.terms) < 0.15

    def test_draw_matches_weights(self):
        rng = np.random.default_rng(0)
        weights = np.tile([1.0, 3.0, 6.0], (20000, 1))
        draws = _draw(weights, rng.random((20000, 1)))
        freqs = np.bincount(draws, minlength=3) / 20000
        assert np.allclose(freqs, [0.1, 0.3, 0.6], atol=0.02)

    def test_draw_edges(self):
        # zero weights are never drawn, and a uniform just below 1 draws
        # the last positive index
        below_one = np.nextafter(1.0, 0.0)
        weights = np.array([[0.0, 2.0, 0.0, 1.0], [0.0, 2.0, 0.0, 2.0],
                            [5.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
        u = np.array([[below_one], [below_one], [0.999], [0.0]])
        assert _draw(weights, u).tolist() == [3, 3, 0, 1]
        one_topic = _draw(np.ones((3, 1)), np.array([[0.0], [0.5], [0.99]]))
        assert one_topic.tolist() == [0, 0, 0]

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            train_lda([], 2)
        with pytest.raises(ValueError):
            train_lda(["apple banana"], 0)
        with pytest.raises(ValueError):
            train_lda(["apple banana"], 5)  # more topics than terms


UNEQUAL = (planted_corpus(20, 5)
           + ["apple",                      # one token
              "the and of it",              # no vocabulary token
              " ".join(TOPIC_B * 15)])      # 90 tokens, 7x the rest


def doc_lengths(corpus, terms):
    return np.array([sum(t in terms for t in tokenize(text))
                     for text in corpus])


def counts_from_theta(theta, lengths, alpha):
    """n_dk recovered from theta = (n_dk + alpha) / (n_d + K alpha)."""
    K = theta.shape[1]
    return theta * (lengths[:, None] + K * alpha) - alpha


def reference_gibbs(docs, topics, sweeps, uniforms, alpha, table, beta=None):
    """_gibbs token by token in plain Python: at each position, every
    document with a token there draws it from counts that leave out all
    of the position's tokens, by the inverse CDF of its uniform."""
    V, K = len(table), len(table[0])
    learn = beta is not None
    table = [list(row) for row in table]
    z = [[topics[d]] * len(ids) for d, ids in enumerate(docs)]
    n_dk = [[0.0] * K for _ in docs]
    for d, ids in enumerate(docs):
        n_dk[d][topics[d]] = float(len(ids))
        if learn:
            for w in ids:
                table[w][topics[d]] += 1.0
    n_k = [sum(table[w][k] for w in range(V)) for k in range(K)]
    first = np.cumsum([0] + [len(ids) for ids in docs])
    for s in range(sweeps):
        u = uniforms(s)
        for p in range(max(len(ids) for ids in docs)):
            step = [d for d, ids in enumerate(docs) if len(ids) > p]
            for d in step:
                k = z[d][p]
                n_dk[d][k] -= 1.0
                if learn:
                    table[docs[d][p]][k] -= 1.0
                    n_k[k] -= 1.0
            new = {}
            for d in step:
                w = docs[d][p]
                weights = []
                for k in range(K):
                    ww = table[w][k]
                    if learn:
                        ww = (ww + beta) / (n_k[k] + V * beta)
                    weights.append(ww * (n_dk[d][k] + alpha))
                cum = list(itertools.accumulate(weights))
                r = u[first[d] + p] * cum[-1]
                new[d] = next((k for k in range(K - 1) if r < cum[k]), K - 1)
            for d in step:
                z[d][p] = new[d]
                n_dk[d][new[d]] += 1.0
                if learn:
                    table[docs[d][p]][new[d]] += 1.0
                    n_k[new[d]] += 1.0
    return np.array(n_dk), np.array(table)


class TestSampler:
    def _docs(self):
        rng = np.random.default_rng(8)
        lengths = [5, 1, 0, 9, 3, 5, 2]
        return [rng.integers(6, size=n) for n in lengths]

    def test_matches_token_by_token_reference_when_learning(self):
        docs = self._docs()
        n = sum(len(ids) for ids in docs)
        U = np.random.default_rng(1).random((4, n))
        topics = np.array([2, 0, 1, 1, 0, 2, 1])
        table = np.zeros((6, 3))
        n_dk = _gibbs(docs, topics, 4, lambda s: U[s], 0.3, table, 0.05)
        ref_dk, ref_wk = reference_gibbs(docs, topics, 4, lambda s: U[s],
                                         0.3, np.zeros((6, 3)), 0.05)
        assert np.array_equal(n_dk, ref_dk)
        assert np.array_equal(table, ref_wk)

    def test_matches_token_by_token_reference_with_fixed_phi(self):
        docs = self._docs()
        n = sum(len(ids) for ids in docs)
        U = np.random.default_rng(2).random((3, n))
        topics = np.array([1, 1, 0, 2, 0, 0, 2])
        phi_t = np.random.default_rng(3).dirichlet(np.ones(6), size=3).T
        fixed = phi_t.copy()
        n_dk = _gibbs(docs, topics, 3, lambda s: U[s], 0.7, fixed)
        ref_dk, _ = reference_gibbs(docs, topics, 3, lambda s: U[s], 0.7,
                                    phi_t)
        assert np.array_equal(n_dk, ref_dk)
        assert np.array_equal(fixed, phi_t)  # phi is not updated

    def test_count_tables_stay_consistent(self):
        alpha, beta = 0.4, 0.02
        model = train_lda(UNEQUAL, 3, alpha=alpha, beta=beta, iterations=15,
                          seed=2)
        lengths = doc_lengths(UNEQUAL, model.terms)
        assert lengths.min() == 0 and 1 in lengths and lengths.max() == 90
        n_dk = counts_from_theta(model.theta, lengths, alpha)
        assert np.allclose(n_dk, np.round(n_dk), atol=1e-9)
        assert np.allclose(n_dk.sum(axis=1), lengths)
        assert np.all(np.round(n_dk) >= 0)
        # phi = (n_kw + beta) / (n_k + V beta)
        V = len(model.terms)
        n_k = np.round(n_dk).sum(axis=0)
        n_kw = model.phi * (n_k[:, None] + V * beta) - beta
        assert np.allclose(n_kw, np.round(n_kw), atol=1e-9)
        corpus_count = np.zeros(V)
        for text in UNEQUAL:
            for t in tokenize(text):
                if t in model.terms:
                    corpus_count[model.terms.index(t)] += 1
        assert np.allclose(n_kw.sum(axis=0), corpus_count)
        # the document with no vocabulary token keeps the prior
        assert np.allclose(model.theta[lengths == 0], 1 / 3)

    def test_inferred_counts_are_the_documents_tokens(self):
        model = train_lda(UNEQUAL, 3, alpha=0.4, iterations=10, seed=2)
        theta = model.infer_theta(UNEQUAL)
        lengths = doc_lengths(UNEQUAL, model.terms)
        n_dk = counts_from_theta(theta, lengths, 0.4)
        assert np.allclose(n_dk, np.round(n_dk), atol=1e-9)
        assert np.allclose(n_dk.sum(axis=1), lengths)

    def test_same_seed_same_bits(self):
        m1 = train_lda(UNEQUAL, 3, iterations=12, seed=9)
        m2 = train_lda(UNEQUAL, 3, iterations=12, seed=9)
        assert m1.phi.tobytes() == m2.phi.tobytes()
        assert m1.theta.tobytes() == m2.theta.tobytes()
        assert (m1.infer_theta(UNEQUAL).tobytes()
                == m2.infer_theta(UNEQUAL).tobytes())
        m3 = train_lda(UNEQUAL, 3, iterations=12, seed=10)
        assert not np.array_equal(m1.phi, m3.phi)


class TestInference:
    def test_infer_theta_held_out(self):
        docs = planted_corpus(200, 3)
        model = train_lda(docs, 2, alpha=0.5, iterations=100, seed=0)
        theta = model.infer_theta(["apple banana cherry grape melon plum",
                                   "engine motor wheel brake gear axle"])
        assert np.allclose(theta.sum(axis=1), 1.0)
        # the two held-out docs should load on opposite topics
        assert np.argmax(theta[0]) != np.argmax(theta[1])
        assert theta[0].max() > 0.8 and theta[1].max() > 0.8

    def test_infer_theta_oov_doc_uniform(self):
        model = train_lda(planted_corpus(30, 4), 2, iterations=20, seed=0)
        theta = model.infer_theta(["zzz qqq"])
        assert np.allclose(theta[0], 0.5)


class TestFeatures:
    def test_topic_feature_columns(self):
        theta = np.array([[0.7, 0.3], [0.2, 0.8]])
        m = topic_features(theta, "lda")
        assert m.columns == ["lda_topic_0", "lda_topic_1", "lda_topic_id"]
        assert m.values[:, -1].tolist() == [0.0, 1.0]

    def test_argmax_tie_goes_low(self):
        m = topic_features(np.array([[0.5, 0.5]]), "lda")
        assert m.values[0, -1] == 0.0
