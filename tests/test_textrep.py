import math

import numpy as np
import pytest

from dataprice.textrep import (STOPWORDS, STOPWORDS_VERSION, Vocabulary, bow,
                               build_vocabulary, ctfidf, idf_vector, kmeans,
                               tfidf, tokenize)
from dataprice.textrep.clustering import PCAReducer, membership_probabilities


class TestTokenize:
    def test_lowercase_split_nonalpha(self):
        assert tokenize("Real-Time GPS data, 2024!") == ["real", "time", "gps", "data"]

    def test_short_tokens_dropped(self):
        assert tokenize("a I ab x yz") == ["ab", "yz"]

    def test_stopwords_removed(self):
        assert tokenize("the data and the feed") == ["data", "feed"]

    def test_stopword_list_is_versioned(self):
        assert STOPWORDS_VERSION == "sw-1"
        assert "the" in STOPWORDS and "data" not in STOPWORDS

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("   1 2 3 !!") == []


class TestVocabulary:
    def test_frequency_order_with_lexicographic_ties(self):
        corpus = ["cherry cherry banana apple", "cherry cherry apple banana durian"]
        v = build_vocabulary(corpus)
        # freq: cherry 4, apple 2, banana 2, durian 1; ties alphabetical
        assert v.terms == ["cherry", "apple", "banana", "durian"]
        assert v.doc_freq == [2, 2, 2, 1]
        assert v.total_docs == 2

    def test_max_terms_cap(self):
        corpus = ["aa bb cc dd ee"]
        v = build_vocabulary(corpus, max_terms=3)
        assert v.terms == ["aa", "bb", "cc"]

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["aa", "aa"], [1, 1], 1)


class TestBowTfidf:
    CORPUS = [
        "apple apple banana common",
        "banana cherry common",
        "cherry cherry cherry common",
    ]

    def test_bow_counts(self):
        v = build_vocabulary(self.CORPUS)
        m = bow(self.CORPUS, v)
        # terms by freq: cherry 4, common 3, apple 2, banana 2
        assert v.terms == ["cherry", "common", "apple", "banana"]
        assert m.values.tolist() == [
            [0, 1, 2, 1],
            [1, 1, 0, 1],
            [3, 1, 0, 0],
        ]
        assert m.columns[0] == "bow_cherry"
        assert set(m.provenance) == {"bow"}

    def test_idf_negative_values_kept(self):
        v = build_vocabulary(self.CORPUS)
        idf = idf_vector(v)
        # "common" appears in all 3 docs: idf = ln(3/4) < 0, not clamped
        j = v.terms.index("common")
        assert idf[j] == pytest.approx(math.log(3 / 4))
        assert idf[j] < 0

    def test_tfidf_hand_oracle(self):
        v = build_vocabulary(self.CORPUS)
        m = tfidf(self.CORPUS, v)
        N = 3
        df = {"cherry": 2, "common": 3, "apple": 1, "banana": 2}
        idf = {t: math.log(N / (1 + d)) for t, d in df.items()}
        tf = [
            {"apple": 2 / 4, "banana": 1 / 4, "common": 1 / 4, "cherry": 0.0},
            {"banana": 1 / 3, "cherry": 1 / 3, "common": 1 / 3, "apple": 0.0},
            {"cherry": 3 / 4, "common": 1 / 4, "apple": 0.0, "banana": 0.0},
        ]
        for i in range(3):
            for j, t in enumerate(v.terms):
                assert m.values[i, j] == pytest.approx(tf[i][t] * idf[t], abs=1e-12)

    def test_unseen_terms_ignored_and_empty_doc_zero_row(self):
        v = build_vocabulary(self.CORPUS)
        m = tfidf(["durian kiwi", ""], v)
        assert np.all(m.values == 0.0)

    def test_df_zero_uses_ln_n(self):
        v = Vocabulary(["ghost"], [0], 5)
        assert idf_vector(v)[0] == pytest.approx(math.log(5))


class TestClusterTopics:
    def test_ctfidf_hand_oracle(self):
        # two cluster-merged documents over three terms
        counts = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 3.0]])
        A = counts.sum() / 2  # average tokens per merged doc = 3.5
        out = ctfidf(counts)
        for c in range(2):
            for t in range(3):
                tf_t = counts[:, t].sum()
                expect = counts[c, t] * math.log(1 + A / tf_t)
                assert out[c, t] == pytest.approx(expect, abs=1e-12)

    def test_kmeans_separated_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.1, size=(20, 2))
        b = rng.normal(5, 0.1, size=(20, 2))
        X = np.vstack([a, b])
        labels, centroids = kmeans(X, 2, seed=3)
        assert len(set(labels[:20])) == 1 and len(set(labels[20:])) == 1
        assert labels[0] != labels[20]

    def test_kmeans_deterministic(self):
        X = np.random.default_rng(1).normal(size=(30, 3))
        l1, c1 = kmeans(X, 4, seed=9)
        l2, c2 = kmeans(X, 4, seed=9)
        assert np.array_equal(l1, l2) and np.allclose(c1, c2)

    def test_pca_projection_matches_full_svd(self):
        X = np.random.default_rng(2).normal(size=(40, 6))
        r = PCAReducer.fit(X, 2).transform(X)
        Xc = X - X.mean(axis=0)
        _, _, vt = np.linalg.svd(Xc, full_matrices=False)
        expect = Xc @ vt[:2].T
        # principal axes are sign-ambiguous
        for j in range(2):
            assert (np.allclose(r[:, j], expect[:, j])
                    or np.allclose(r[:, j], -expect[:, j]))

    def test_pca_reducer_transforms_new_rows(self):
        X = np.random.default_rng(3).normal(size=(25, 5))
        red = PCAReducer.fit(X, 2)
        assert red.transform(X[:4]).shape == (4, 2)

    def test_membership_rows_sum_to_one(self):
        X = np.random.default_rng(4).normal(size=(15, 3))
        _, centroids = kmeans(X, 3, seed=0)
        m = membership_probabilities(X, centroids)
        assert np.allclose(m.sum(axis=1), 1.0)
        assert np.all(m >= 0)
