"""Skip-gram word embeddings trained with negative sampling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..matrix import FeatureMatrix
from .tokenizer import tokenize
from .vocab import build_vocabulary

FORMAT_VERSION = "embedding-v1"
# The most (center, context) pairs whose summed update is applied at once.
# It bounds a step's working arrays whatever the length of the document.
PAIRS_PER_STEP = 64


@dataclass
class EmbeddingTable:
    terms: list[str]
    input_vectors: np.ndarray   # (V, d) center-word vectors
    output_vectors: np.ndarray  # (V, d) context-word vectors
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        self.index = {t: i for i, t in enumerate(self.terms)}
        if self.input_vectors.shape != self.output_vectors.shape:
            raise ValueError("input/output vector shape mismatch")
        if self.input_vectors.shape[0] != len(self.terms):
            raise ValueError("one vector pair per term required")
        if not (np.isfinite(self.input_vectors).all()
                and np.isfinite(self.output_vectors).all()):
            raise ValueError("non-finite embedding entries")

    @property
    def dimension(self) -> int:
        return self.input_vectors.shape[1]

    def vector(self, term: str) -> np.ndarray | None:
        i = self.index.get(term)
        return None if i is None else self.input_vectors[i]

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("%s dim=%d terms=%d\n" % (FORMAT_VERSION, self.dimension, len(self.terms)))
            for key in sorted(self.config):
                fh.write("# %s=%s\n" % (key, self.config[key]))
            for block, vecs in (("input", self.input_vectors), ("output", self.output_vectors)):
                fh.write("[%s]\n" % block)
                for t, v in zip(self.terms, vecs):
                    fh.write(t + " " + " ".join(format(x, ".17g") for x in v) + "\n")

    @staticmethod
    def load(path) -> "EmbeddingTable":
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if not header or header[0] != FORMAT_VERSION:
                raise ValueError("unsupported embedding file version")
            config = {}
            terms: list[str] = []
            blocks: dict[str, list[np.ndarray]] = {}
            current = None
            for line in fh:
                line = line.rstrip("\n")
                if line.startswith("# "):
                    k, _, v = line[2:].partition("=")
                    config[k] = v
                elif line.startswith("["):
                    current = line.strip("[]")
                    blocks[current] = []
                elif line:
                    parts = line.split()
                    if current == "input":
                        terms.append(parts[0])
                    blocks[current].append(np.array([float(x) for x in parts[1:]]))
        return EmbeddingTable(terms, np.array(blocks["input"]),
                              np.array(blocks["output"]), config)


def sgns_loss_and_grad(center: np.ndarray, positive: np.ndarray,
                       negatives: np.ndarray):
    """Negative-sampling loss of (center, context) pairs with k negative
    context vectors each, plus analytic gradients.

    center and positive are (..., d), negatives (..., k, d); one pair is the
    1-D case. Per pair,
    loss = -log sigmoid(positive . center) - sum_k log sigmoid(-neg_k . center)
    The products are einsums without `optimize`, which never reach BLAS, so
    the result does not depend on the BLAS thread count.
    """
    pos_score = np.einsum("...d,...d->...", positive, center, optimize=False)
    neg_scores = np.einsum("...kd,...d->...k", negatives, center,
                           optimize=False)
    sig_pos = 1.0 / (1.0 + np.exp(-pos_score))
    sig_neg = 1.0 / (1.0 + np.exp(neg_scores))
    loss = -np.log(sig_pos) - np.log(sig_neg).sum(axis=-1)
    # d/dx -log sigmoid(x) = sigmoid(x) - 1
    g_pos = (sig_pos - 1.0)[..., None] * center
    g_negs = (1.0 - sig_neg)[..., None] * center[..., None, :]
    g_center = (sig_pos - 1.0)[..., None] * positive + np.einsum(
        "...k,...kd->...d", 1.0 - sig_neg, negatives, optimize=False)
    return loss, g_center, g_pos, g_negs


def _negative_cdf(counts: np.ndarray) -> np.ndarray:
    """The unigram^0.75 noise distribution as the normalised CDF that
    `Generator.choice(V, p=probs)` builds from it."""
    p = counts.astype(np.float64) ** 0.75
    cdf = (p / p.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _context_pairs(ids: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The (center, context) ids of one document, centers in order and each
    center's contexts left to right."""
    offsets = np.r_[-window:0, 1:window + 1]
    t = np.repeat(np.arange(len(ids)), len(offsets))
    j = t + np.tile(offsets, len(ids))
    keep = (j >= 0) & (j < len(ids))
    return ids[t[keep]], ids[j[keep]]


def _apply_update(vecs: np.ndarray, ids: np.ndarray, delta: np.ndarray) -> None:
    """vecs[ids] += delta, summing the rows of a repeated id, by one
    np.bincount over the flattened (id * d + j) cells."""
    V, d = vecs.shape
    cells = (ids[:, None] * d + np.arange(d)).ravel()
    vecs += np.bincount(cells, weights=delta.ravel(),
                        minlength=V * d).reshape(V, d)


def train_skipgram(corpus: list[str], d: int = 100, window: int = 5,
                   epochs: int = 5, lr: float = 0.025, negatives: int = 5,
                   seed: int = 0, max_terms: int = 500) -> EmbeddingTable:
    """Train center/context vectors by mini-batch SGD on the negative-sampling
    loss.

    Each document's pairs are cut into consecutive steps of at most
    PAIRS_PER_STEP pairs. A step computes every pair's gradients from the
    vectors as they were at its start, then applies their sum (Ji et al.
    2016, arXiv:1604.04661, with the objective of Mikolov et al. 2013).
    Deterministic given the seed; per-epoch average loss is recorded in the
    table config under loss_curve.
    """
    if window < 1 or epochs < 1:
        raise ValueError("window and epochs must be >= 1, got %r and %r"
                         % (window, epochs))
    vocab = build_vocabulary(corpus, max_terms=max_terms)
    if len(vocab) < 2:
        raise ValueError("need a vocabulary of at least 2 terms")
    docs = []
    counts = np.zeros(len(vocab), dtype=np.int64)
    for text in corpus:
        ids = np.array([vocab.index[t] for t in tokenize(text)
                        if t in vocab.index], dtype=np.int64)
        if len(ids) >= 2:
            docs.append(_context_pairs(ids, window))
            np.add.at(counts, ids, 1)
    if not docs:
        raise ValueError("corpus too small: no (center, context) pairs")
    neg_cdf = _negative_cdf(np.maximum(counts, 1))

    rng = np.random.default_rng(seed)
    V = len(vocab)
    vec_in = (rng.random((V, d)) - 0.5) / d
    vec_out = np.zeros((V, d))

    loss_curve = []
    for _ in range(epochs):
        total, n_pairs = 0.0, 0
        for centers, contexts in docs:
            # Generator.choice(V, size=k, p=probs) looks k draws of random()
            # up in neg_cdf (side="right"). Drawing all of a document's
            # uniforms in one call reads the same stream in the same order,
            # so every pair gets the negatives that a per-pair choice gave.
            u = rng.random(len(centers) * negatives)
            neg_ids = neg_cdf.searchsorted(u, side="right").reshape(
                len(centers), negatives)
            for s in range(0, len(centers), PAIRS_PER_STEP):
                c = centers[s:s + PAIRS_PER_STEP]
                o = contexts[s:s + PAIRS_PER_STEP]
                negs = neg_ids[s:s + PAIRS_PER_STEP]
                loss, g_c, g_p, g_n = sgns_loss_and_grad(
                    vec_in[c], vec_out[o], vec_out[negs])
                _apply_update(vec_in, c, -lr * g_c)
                _apply_update(vec_out, np.concatenate([o, negs.ravel()]),
                              -lr * np.concatenate([g_p, g_n.reshape(-1, d)]))
                total += loss.sum()
            n_pairs += len(centers)
        loss_curve.append(total / n_pairs)

    config = {"dimension": d, "window": window, "epochs": epochs, "lr": lr,
              "negatives": negatives, "seed": seed,
              "loss_curve": ",".join(format(x, ".6g") for x in loss_curve)}
    return EmbeddingTable(list(vocab.terms), vec_in, vec_out, config)


def doc_embedding(text: str, table: EmbeddingTable) -> np.ndarray:
    """Average-pooled center vectors of in-vocabulary tokens; the zero
    vector when no token is in vocabulary."""
    vecs = [table.input_vectors[table.index[t]]
            for t in tokenize(text) if t in table.index]
    if not vecs:
        return np.zeros(table.dimension)
    return np.mean(vecs, axis=0)


def embedding_features(corpus: list[str], table: EmbeddingTable) -> FeatureMatrix:
    values = np.array([doc_embedding(doc, table) for doc in corpus])
    cols = ["embedding_%d" % i for i in range(table.dimension)]
    return FeatureMatrix(values, cols, ["word2vec"] * len(cols))
