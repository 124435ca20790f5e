import numpy as np
import pytest

from dataprice.corpus import compose_text
from dataprice.synth import generate_products
from dataprice.textrep import (EmbeddingTable, build_vocabulary,
                               doc_embedding, embedding_features,
                               sgns_loss_and_grad, tokenize, train_skipgram)

CORPUS = [
    "apple banana cherry apple banana",
    "cherry banana apple cherry",
    "durian cherry apple banana durian",
] * 3


def reference_loss(center, positive, negatives):
    """Independent loss evaluation used for finite differences."""

    def sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    loss = -np.log(sigmoid(positive @ center))
    for neg in negatives:
        loss -= np.log(sigmoid(-neg @ center))
    return float(loss)


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(3, 12))
            k = int(rng.integers(1, 6))
            center = rng.normal(0, 1, d)
            pos = rng.normal(0, 1, d)
            negs = rng.normal(0, 1, (k, d))
            _, g_c, g_p, g_n = sgns_loss_and_grad(center, pos, negs)

            def check(vec, grad, rebuild):
                nonlocal worst
                for i in range(len(vec)):
                    bump = np.zeros_like(vec)
                    bump[i] = h
                    hi = reference_loss(*rebuild(vec + bump))
                    lo = reference_loss(*rebuild(vec - bump))
                    fd = (hi - lo) / (2 * h)
                    denom = max(abs(fd), abs(grad[i]), 1e-8)
                    worst = max(worst, abs(fd - grad[i]) / denom)

            check(center, g_c, lambda v: (v, pos, negs))
            check(pos, g_p, lambda v: (center, v, negs))
            for j in range(k):
                check(negs[j], g_n[j],
                      lambda v, j=j: (center, pos,
                                      np.vstack([negs[:j], v[None], negs[j + 1:]])))
        assert worst < 1e-4

    def test_loss_value_matches_reference(self):
        rng = np.random.default_rng(7)
        center, pos = rng.normal(size=5), rng.normal(size=5)
        negs = rng.normal(size=(3, 5))
        loss, *_ = sgns_loss_and_grad(center, pos, negs)
        assert loss == pytest.approx(reference_loss(center, pos, negs), abs=1e-12)


class TestTraining:
    def test_loss_curve_decreases(self):
        table = train_skipgram(CORPUS, d=8, window=2, epochs=4, seed=0)
        curve = [float(x) for x in table.config["loss_curve"].split(",")]
        assert len(curve) == 4
        assert curve[-1] < curve[0]

    def test_deterministic_given_seed(self):
        t1 = train_skipgram(CORPUS, d=6, epochs=2, seed=5)
        t2 = train_skipgram(CORPUS, d=6, epochs=2, seed=5)
        assert np.array_equal(t1.input_vectors, t2.input_vectors)
        t3 = train_skipgram(CORPUS, d=6, epochs=2, seed=6)
        assert not np.array_equal(t1.input_vectors, t3.input_vectors)

    def test_related_words_closer_than_unrelated(self):
        corpus = (["red apple sweet fruit tasty apple fruit"] * 10
                  + ["fast car engine wheel motor car engine"] * 10)
        table = train_skipgram(corpus, d=12, window=3, epochs=10, seed=1)

        def sim(a, b):
            va, vb = table.vector(a), table.vector(b)
            return float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))

        assert sim("apple", "fruit") > sim("apple", "engine")

    def test_tiny_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_skipgram(["solo"], d=4)

    @pytest.mark.parametrize("window,epochs", [(0, 1), (-1, 1), (2, 0)])
    def test_empty_window_or_no_epochs_rejected(self, window, epochs):
        # window 0 leaves no (center, context) pair to average the loss over
        with pytest.raises(ValueError, match="window and epochs"):
            train_skipgram(["apple banana cherry durian"] * 3, d=3,
                           window=window, epochs=epochs)


# The training loop that per-document negative draws replaced, copied as it
# was: one rng.choice(V, size=negatives, p=...) per (center, context) pair.
# Tables must match it bit for bit.

def _ref_train_skipgram(corpus, d, window, epochs, lr, negatives, seed,
                        max_terms=500):
    vocab = build_vocabulary(corpus, max_terms=max_terms)
    docs = []
    counts = np.zeros(len(vocab), dtype=np.int64)
    for text in corpus:
        ids = [vocab.index[t] for t in tokenize(text) if t in vocab.index]
        if len(ids) >= 2:
            docs.append(np.array(ids, dtype=np.int64))
            np.add.at(counts, ids, 1)
    counts = np.maximum(counts, 1)
    p = counts.astype(np.float64) ** 0.75
    neg_probs = p / p.sum()

    rng = np.random.default_rng(seed)
    V = len(vocab)
    vec_in = (rng.random((V, d)) - 0.5) / d
    vec_out = np.zeros((V, d))
    loss_curve = []
    for _ in range(epochs):
        total, n_pairs = 0.0, 0
        for ids in docs:
            L = len(ids)
            for t in range(L):
                lo, hi = max(0, t - window), min(L, t + window + 1)
                for j in range(lo, hi):
                    if j == t:
                        continue
                    c, o = ids[t], ids[j]
                    negs = rng.choice(V, size=negatives, p=neg_probs)
                    center = vec_in[c]
                    loss, g_c, g_p, g_n = sgns_loss_and_grad(
                        center, vec_out[o], vec_out[negs])
                    vec_in[c] = center - lr * g_c
                    vec_out[o] -= lr * g_p
                    np.add.at(vec_out, negs, -lr * g_n)
                    total += loss
                    n_pairs += 1
        loss_curve.append(total / n_pairs)
    config = {"dimension": d, "window": window, "epochs": epochs, "lr": lr,
              "negatives": negatives, "seed": seed,
              "loss_curve": ",".join(format(x, ".6g") for x in loss_curve)}
    return vec_in, vec_out, config, rng.random()


REFERENCE_CORPORA = {
    "three_docs": CORPUS,
    # two terms: a pair's negatives repeat, so the order of np.add.at's
    # accumulation shows in the bits
    "two_terms": ["apple banana apple apple banana"] * 4,
    # documents shorter than a window of 5, and one that drops out
    "short_docs": ["apple banana", "cherry", "banana cherry durian",
                   "durian apple"] * 2,
    "synthetic": [compose_text(p) for p in generate_products(6, 2)],
}


class TestReferenceLoop:
    @pytest.mark.parametrize("name", sorted(REFERENCE_CORPORA))
    @pytest.mark.parametrize("window,negatives", [(5, 5), (1, 3)])
    def test_tables_match_per_pair_choice(self, name, window, negatives,
                                          monkeypatch):
        corpus = REFERENCE_CORPORA[name]
        kw = dict(d=7, window=window, epochs=2, lr=0.05, negatives=negatives,
                  seed=3, max_terms=40)
        ref_in, ref_out, ref_config, ref_next = _ref_train_skipgram(corpus, **kw)
        # the stream after training: the same number of draws was taken
        draws = []
        real_default_rng = np.random.default_rng

        def spy(seed):
            draws.append(real_default_rng(seed))
            return draws[-1]

        monkeypatch.setattr(np.random, "default_rng", spy)
        table = train_skipgram(corpus, **kw)
        assert table.input_vectors.tobytes() == ref_in.tobytes()
        assert table.output_vectors.tobytes() == ref_out.tobytes()
        assert table.config == ref_config
        assert draws[-1].random() == ref_next


class TestDocVectors:
    def test_average_pooling(self):
        table = train_skipgram(CORPUS, d=6, epochs=1, seed=0)
        vec = doc_embedding("apple banana", table)
        expect = (table.vector("apple") + table.vector("banana")) / 2
        assert np.allclose(vec, expect)

    def test_all_oov_is_zero_vector(self):
        table = train_skipgram(CORPUS, d=6, epochs=1, seed=0)
        assert np.all(doc_embedding("zzz qqq", table) == 0.0)

    def test_feature_matrix_shape(self):
        table = train_skipgram(CORPUS, d=6, epochs=1, seed=0)
        m = embedding_features(["apple", "banana cherry"], table)
        assert m.values.shape == (2, 6)
        assert m.columns == ["embedding_%d" % i for i in range(6)]
        assert set(m.provenance) == {"word2vec"}


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        table = train_skipgram(CORPUS, d=5, epochs=1, seed=3)
        path = tmp_path / "emb.txt"
        table.save(path)
        back = EmbeddingTable.load(path)
        assert back.terms == table.terms
        assert np.allclose(back.input_vectors, table.input_vectors)
        assert np.allclose(back.output_vectors, table.output_vectors)

    def test_version_check(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("other-format dim=3 terms=1\n")
        with pytest.raises(ValueError, match="version"):
            EmbeddingTable.load(path)
