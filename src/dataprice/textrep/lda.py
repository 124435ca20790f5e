"""Latent Dirichlet Allocation fitted by position-synchronous Gibbs sampling.

Fit and inference run one sampler, `_gibbs`: the approximate distributed
sampler AD-LDA (Newman, Asuncion, Smyth & Welling 2009, "Distributed
Algorithms for Topic Models", JMLR 10) with one worker per document. At
sweep position p every document that has a p-th token resamples it, all
in one array step, so a sweep takes as many steps as the longest document
has tokens. It approximates collapsed Gibbs sampling: a document's own
counts are exact, but within a step the topic-word counts leave out all of
the step's tokens, not just the one being drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..matrix import FeatureMatrix
from .tokenizer import tokenize
from .vocab import build_vocabulary

INFER_SWEEPS = 50  # Gibbs sweeps of a held-out document under a fixed phi


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
        """Document-topic mixtures for new documents under the fitted phi:
        INFER_SWEEPS sweeps of the training sampler with phi held fixed.
        Each document's initial topic and uniforms come from its own
        stream, seeded by the model seed and the document's term ids, and
        no count is shared between documents, so a document's mixture does
        not depend on the batch. A document with no vocabulary term gets
        the uniform mixture."""
        index = {t: i for i, t in enumerate(self.terms)}
        K = self.n_topics
        if not corpus:
            return np.zeros((0, K))
        docs = _term_ids(corpus, index)
        topics = np.zeros(len(docs), dtype=np.int64)
        streams = []
        for d, ids in enumerate(docs):
            rng = np.random.default_rng([self.seed, *ids.tolist()])
            topics[d] = rng.integers(K)
            streams.append(rng.random((INFER_SWEEPS, len(ids))))
        uniforms = np.hstack(streams)
        n_dk = _gibbs(docs, topics, INFER_SWEEPS, lambda s: uniforms[s],
                      self.alpha, np.ascontiguousarray(self.phi.T))
        return ((n_dk + self.alpha)
                / (n_dk.sum(axis=1, keepdims=True) + K * self.alpha))


def _term_ids(corpus: list[str], index: dict) -> list[np.ndarray]:
    """Each document's vocabulary tokens as term ids, in text order."""
    return [np.array([index[t] for t in tokenize(text) if t in index],
                     dtype=np.int64) for text in corpus]


def _draw(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per row of weights (non-negative, with a positive total)
    by the inverse CDF: the first k whose cumulative weight exceeds u times
    the row's total, with u of shape (n, 1), one uniform in [0, 1) per row.
    Overwrites weights with its cumulative sums."""
    cum = np.add.accumulate(weights, axis=1, out=weights)
    # u < 1 rounds u * total below the total, so the count stops short of K
    return np.add.reduce(cum <= u * cum[:, -1:], axis=1)


def _gibbs(docs: list[np.ndarray], topics: np.ndarray, sweeps: int,
           uniforms, alpha: float, table: np.ndarray,
           beta: float | None = None) -> np.ndarray:
    """Position-synchronous Gibbs sweeps over documents of term ids. Every
    token of document d starts in topic topics[d]. At position p of a
    sweep, every document with a p-th token draws its topic in one step,
    with weight (n_dk + alpha) times the word's weight under topic k, from
    counts that leave out all of the step's tokens, by _draw. uniforms(s)
    returns sweep s's uniforms, one per token in corpus order.

    table is (V, K). With beta given, a word's weight is (n_wk + beta) /
    (n_k + V beta) from topic-word counts that follow the draws, and their
    final values are added to table (training). Without beta, table is
    phi's transpose, a word's weight is phi_kw, and only the document's
    counts change (inference). Returns the (N, K) document-topic counts of
    the final assignment."""
    learn = beta is not None
    V, K = table.shape
    N = len(docs)
    lengths = np.array([len(ids) for ids in docs], dtype=np.int64)
    # documents ranked longest first, so that those with a p-th token are
    # ranks 0 .. count[p] - 1, and tokens in position-major order, so that
    # each position's tokens are one slice
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    n = int(ranked.sum())
    rank = np.repeat(np.arange(N), ranked)
    pos = np.arange(n) - np.repeat(np.cumsum(ranked) - ranked, ranked)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(pos))])
    by_position = np.argsort(pos, kind="stable")
    rank, pos = rank[by_position], pos[by_position]
    # each token's index in corpus order
    perm = (np.cumsum(lengths) - lengths)[order][rank] + pos
    words = np.concatenate(docs)[perm]

    # one buffer holds every count that the tokens move: the document-topic
    # counts and, when learning, the topic-word counts and the topic
    # totals. A token's slot in a table is its row's offset plus its
    # topic, so a step moves its tokens out with one subtract.at and back
    # in with one add.at
    counts = np.zeros(N * K + V * K + K)
    n_dk = counts[:N * K].reshape(N, K)
    n_wk = counts[N * K:N * K + V * K].reshape(V, K)
    n_k = counts[N * K + V * K:]
    rows = np.stack([rank * K, N * K + words * K,
                     np.full(n, N * K + V * K)])[:3 if learn else 1]
    slots = rows + topics[order][rank]
    np.add.at(counts, slots, 1.0)
    u = np.empty((n, 1))
    # each position's views, built once
    steps = [(words[a:b], rows[:, a:b], slots[:, a:b], u[a:b], n_dk[:b - a])
             for a, b in zip(bounds[:-1], bounds[1:])]

    for s in range(sweeps):
        u[:, 0] = uniforms(s)[perm]
        for w, row, slot, up, dk in steps:
            np.subtract.at(counts, slot, 1.0)
            if learn:
                weights = n_wk.take(w, axis=0)
                weights += beta
                weights /= n_k + V * beta
            else:
                weights = table.take(w, axis=0)
            weights *= dk + alpha
            np.add(row, _draw(weights, up), out=slot)
            np.add.at(counts, slot, 1.0)

    if learn:
        table += n_wk
    out = np.empty_like(n_dk)
    out[order] = n_dk
    return out


def train_lda(corpus: list[str], n_topics: int, alpha: float | None = None,
              beta: float = 0.01, iterations: int = 1000, seed: int = 0,
              max_terms: int = 500) -> TopicModel:
    """Position-synchronous Gibbs sampling (AD-LDA) over token-topic
    assignments, with draws from np.random.default_rng(seed): each
    document draws one initial topic, uniformly, for all of its tokens,
    then `iterations` sweeps run. phi and theta are estimated from the
    final count tables with Dirichlet smoothing."""
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
    docs = _term_ids(corpus, vocab.index)
    n_tokens = sum(len(ids) for ids in docs)

    rng = np.random.default_rng(seed)
    n_wk = np.zeros((V, K))
    n_dk = _gibbs(docs, rng.integers(K, size=len(docs)), iterations,
                  lambda s: rng.random(n_tokens), alpha, n_wk, beta)
    phi = (n_wk.T + beta) / (n_wk.sum(axis=0)[:, None] + V * beta)
    theta = (n_dk + alpha) / (n_dk.sum(axis=1, keepdims=True) + K * alpha)
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
