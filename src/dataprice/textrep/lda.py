"""Latent Dirichlet Allocation fitted by collapsed Gibbs sampling."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..matrix import FeatureMatrix
from .tokenizer import tokenize
from .vocab import build_vocabulary


@dataclass
class TopicModel:
    n_topics: int
    phi: np.ndarray    # (K, V) topic-word distributions, rows sum to 1
    theta: np.ndarray  # (N, K) document-topic distributions, rows sum to 1
    alpha: float
    beta: float
    terms: list[str]
    seed: int
    iterations: int

    def __post_init__(self):
        for name, m in (("phi", self.phi), ("theta", self.theta)):
            if np.any(m < 0):
                raise ValueError("%s has negative entries" % name)
            if np.max(np.abs(m.sum(axis=1) - 1.0)) > 1e-8:
                raise ValueError("%s rows must sum to 1" % name)

    def infer_theta(self, corpus: list[str]) -> np.ndarray:
        """Document-topic mixtures for new documents under the fitted phi,
        by short per-document Gibbs runs with phi held fixed. Each run draws
        from its own stream, seeded by the model seed and the document's
        term ids, so a document's mixture does not depend on the batch."""
        index = {t: i for i, t in enumerate(self.terms)}
        K = self.n_topics
        out = np.zeros((len(corpus), K))
        for i, text in enumerate(corpus):
            ids = [index[t] for t in tokenize(text) if t in index]
            if not ids:
                out[i] = 1.0 / K
                continue
            rng = random.Random(np.array([self.seed, *ids], np.int64).tobytes())
            z = [rng.randrange(K) for _ in ids]
            n_k = [0] * K
            for t in z:
                n_k[t] += 1
            for _ in range(50):
                for pos, w in enumerate(ids):
                    n_k[z[pos]] -= 1
                    weights = [(n_k[k] + self.alpha) * self.phi[k, w] for k in range(K)]
                    z[pos] = _draw(rng, weights)
                    n_k[z[pos]] += 1
            out[i] = (np.array(n_k) + self.alpha) / (len(ids) + K * self.alpha)
        return out


def _draw(rng: random.Random, weights: list[float]) -> int:
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for k, w in enumerate(weights):
        acc += w
        if r < acc:
            return k
    return len(weights) - 1


def train_lda(corpus: list[str], n_topics: int, alpha: float | None = None,
              beta: float = 0.01, iterations: int = 1000, seed: int = 0,
              max_terms: int = 500) -> TopicModel:
    """Collapsed Gibbs sampling over token-topic assignments; phi and theta
    are estimated from the final count tables with Dirichlet smoothing."""
    if not corpus:
        raise ValueError("empty corpus")
    if n_topics < 1:
        raise ValueError("n_topics must be >= 1")
    vocab = build_vocabulary(corpus, max_terms=max_terms)
    V = len(vocab)
    if n_topics > V:
        raise ValueError("n_topics exceeds vocabulary size")
    if alpha is None:
        alpha = 50.0 / n_topics
    K = n_topics
    docs = [[vocab.index[t] for t in tokenize(text) if t in vocab.index]
            for text in corpus]

    rng = random.Random(seed)
    # plain Python count tables keep the per-token sampling loop cheap
    n_kw = [[0] * V for _ in range(K)]
    n_dk = [[0] * K for _ in range(len(docs))]
    n_k = [0] * K
    z = []
    for d, ids in enumerate(docs):
        zs = []
        for w in ids:
            k = rng.randrange(K)
            zs.append(k)
            n_kw[k][w] += 1
            n_dk[d][k] += 1
            n_k[k] += 1
        z.append(zs)

    v_beta = V * beta
    for _ in range(iterations):
        for d, ids in enumerate(docs):
            zd = z[d]
            ndk = n_dk[d]
            for pos, w in enumerate(ids):
                k = zd[pos]
                n_kw[k][w] -= 1
                ndk[k] -= 1
                n_k[k] -= 1
                weights = [(ndk[kk] + alpha) * (n_kw[kk][w] + beta) / (n_k[kk] + v_beta)
                           for kk in range(K)]
                k = _draw(rng, weights)
                zd[pos] = k
                n_kw[k][w] += 1
                ndk[k] += 1
                n_k[k] += 1

    n_kw_arr = np.array(n_kw, dtype=np.float64)
    n_dk_arr = np.array(n_dk, dtype=np.float64)
    phi = (n_kw_arr + beta) / (n_kw_arr.sum(axis=1, keepdims=True) + v_beta)
    theta = (n_dk_arr + alpha) / (n_dk_arr.sum(axis=1, keepdims=True) + K * alpha)
    return TopicModel(K, phi, theta, alpha, beta, list(vocab.terms), seed,
                      iterations)


def topic_features(theta: np.ndarray, prefix: str = "lda") -> FeatureMatrix:
    """Per-document topic mixture columns plus the argmax topic id as a
    categorical column (ties go to the lower topic index)."""
    theta = np.asarray(theta, dtype=np.float64)
    topic_id = np.argmax(theta, axis=1).astype(np.float64)
    values = np.hstack([theta, topic_id[:, None]])
    cols = ["%s_topic_%d" % (prefix, k) for k in range(theta.shape[1])]
    cols.append("%s_topic_id" % prefix)
    return FeatureMatrix(values, cols, [prefix] * len(cols))
