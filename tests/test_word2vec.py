import os
import subprocess
import sys

import numpy as np
import pytest

import dataprice
from dataprice.corpus import compose_text
from dataprice.synth import generate_products
from dataprice.textrep import (EmbeddingTable, build_vocabulary,
                               doc_embedding, embedding_features,
                               sgns_loss_and_grad, tokenize, train_skipgram)
from dataprice.textrep.word2vec import PAIRS_PER_STEP

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


def _reference_start(corpus, d, window, seed, max_terms):
    """Each document's (center, context) pairs in order, the noise
    distribution, and the seeded generator after the tables' initial draw."""
    vocab = build_vocabulary(corpus, max_terms=max_terms)
    docs = []
    counts = np.zeros(len(vocab), dtype=np.int64)
    for text in corpus:
        ids = [vocab.index[t] for t in tokenize(text) if t in vocab.index]
        if len(ids) >= 2:
            docs.append([(ids[t], ids[j]) for t in range(len(ids))
                         for j in range(max(0, t - window),
                                        min(len(ids), t + window + 1))
                         if j != t])
            np.add.at(counts, ids, 1)
    p = np.maximum(counts, 1).astype(np.float64) ** 0.75
    rng = np.random.default_rng(seed)
    vec_in = (rng.random((len(vocab), d)) - 0.5) / d
    return docs, p / p.sum(), rng, vec_in, np.zeros((len(vocab), d))


# The training loop that mini-batch steps replaced: one update per
# (center, context) pair, with one rng.choice(V, size=negatives, p=...) per
# pair. It draws the same negatives as the step loop.

def _per_pair_train_skipgram(corpus, d, window, epochs, lr, negatives, seed,
                             max_terms=500):
    docs, neg_probs, rng, vec_in, vec_out = _reference_start(
        corpus, d, window, seed, max_terms)
    loss_curve = []
    for _ in range(epochs):
        total, n_pairs = 0.0, 0
        for pairs in docs:
            for c, o in pairs:
                negs = rng.choice(len(vec_in), size=negatives, p=neg_probs)
                center = vec_in[c]
                loss, g_c, g_p, g_n = sgns_loss_and_grad(
                    center, vec_out[o], vec_out[negs])
                vec_in[c] = center - lr * g_c
                vec_out[o] -= lr * g_p
                np.add.at(vec_out, negs, -lr * g_n)
                total += loss
            n_pairs += len(pairs)
        loss_curve.append(total / n_pairs)
    return loss_curve, rng.random()


# Plain-Python reference of one mini-batch step: every pair of the step gets
# its 1-D gradients from a snapshot of both tables taken at the step's
# start, and the summed updates are applied at its end.

def _ref_train_skipgram(corpus, d, window, epochs, lr, negatives, seed,
                        max_terms=500):
    docs, neg_probs, rng, vec_in, vec_out = _reference_start(
        corpus, d, window, seed, max_terms)
    loss_curve = []
    for _ in range(epochs):
        total, n_pairs = 0.0, 0
        for pairs in docs:
            for s in range(0, len(pairs), PAIRS_PER_STEP):
                snap_in, snap_out = vec_in.copy(), vec_out.copy()
                delta_in, delta_out = np.zeros_like(vec_in), np.zeros_like(vec_out)
                for c, o in pairs[s:s + PAIRS_PER_STEP]:
                    negs = rng.choice(len(vec_in), size=negatives, p=neg_probs)
                    loss, g_c, g_p, g_n = sgns_loss_and_grad(
                        snap_in[c], snap_out[o], snap_out[negs])
                    delta_in[c] -= lr * g_c
                    delta_out[o] -= lr * g_p
                    for k, neg in enumerate(negs):
                        delta_out[neg] -= lr * g_n[k]
                    total += loss
                vec_in += delta_in
                vec_out += delta_out
            n_pairs += len(pairs)
        loss_curve.append(total / n_pairs)
    config = {"dimension": d, "window": window, "epochs": epochs, "lr": lr,
              "negatives": negatives, "seed": seed,
              "loss_curve": ",".join(format(x, ".6g") for x in loss_curve)}
    return vec_in, vec_out, config, rng.random()


REFERENCE_CORPORA = {
    "three_docs": CORPUS,
    # two terms: a pair's negatives repeat, and so do its center and context
    "two_terms": ["apple banana apple apple banana"] * 4,
    # documents shorter than a window of 5, and one that drops out
    "short_docs": ["apple banana", "cherry", "banana cherry durian",
                   "durian apple"] * 2,
    # documents of more than one step
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
        per_pair_curve, per_pair_next = _per_pair_train_skipgram(corpus, **kw)
        # the stream after training: the same number of draws was taken
        draws = []
        real_default_rng = np.random.default_rng

        def spy(seed):
            draws.append(real_default_rng(seed))
            return draws[-1]

        monkeypatch.setattr(np.random, "default_rng", spy)
        table = train_skipgram(corpus, **kw)
        np.testing.assert_allclose(table.input_vectors, ref_in, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table.output_vectors, ref_out, rtol=0, atol=1e-12)
        assert table.config == ref_config
        assert draws[-1].random() == ref_next == per_pair_next
        assert len(table.config["loss_curve"].split(",")) == len(per_pair_curve)

    def test_synthetic_documents_span_several_steps(self):
        # so that the window-5 cases above cross step boundaries
        corpus = REFERENCE_CORPORA["synthetic"]
        vocab = build_vocabulary(corpus, max_terms=40)
        L = max(sum(t in vocab.index for t in tokenize(text)) for text in corpus)
        assert sum(min(t, 5) + min(L - 1 - t, 5) for t in range(L)) > PAIRS_PER_STEP


class TestThreadCountInvariance:
    def test_tables_byte_identical_across_blas_threads(self):
        code = ("import hashlib\n"
                "from dataprice.corpus import compose_text\n"
                "from dataprice.synth import generate_products\n"
                "from dataprice.textrep import train_skipgram\n"
                "texts = [compose_text(p) for p in generate_products(12, 4)]\n"
                "t = train_skipgram(texts, d=16, epochs=2, seed=9)\n"
                "print(hashlib.sha256(t.input_vectors.tobytes()"
                " + t.output_vectors.tobytes()).hexdigest())\n")
        src = os.path.dirname(os.path.dirname(dataprice.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(
                           [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120)
            digests.append(out.stdout.strip())
        assert len(digests[0]) == 64
        assert digests[0] == digests[1]


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
