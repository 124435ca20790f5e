"""Vocabulary construction plus bag-of-words and TF-IDF matrices."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..matrix import FeatureMatrix
from .tokenizer import tokenize


@dataclass
class Vocabulary:
    """Ordered term list: corpus frequency descending, ties lexicographic,
    capped at max_terms. doc_freq counts documents containing each term."""

    terms: list[str]
    doc_freq: list[int]
    total_docs: int

    def __post_init__(self):
        if len(set(self.terms)) != len(self.terms):
            raise ValueError("vocabulary terms must be unique")
        self.index = {t: i for i, t in enumerate(self.terms)}

    def __len__(self) -> int:
        return len(self.terms)


def build_vocabulary(corpus: list[str], max_terms: int = 500) -> Vocabulary:
    if not corpus:
        raise ValueError("empty corpus")
    freq = Counter()
    doc_freq = Counter()
    for tokens in map(tokenize, corpus):
        freq.update(tokens)
        doc_freq.update(set(tokens))
    ordered = sorted(freq, key=lambda t: (-freq[t], t))[:max_terms]
    return Vocabulary(ordered, [doc_freq[t] for t in ordered], len(corpus))


def bow(corpus: list[str], vocab: Vocabulary) -> FeatureMatrix:
    """Integer term counts per document; out-of-vocabulary tokens ignored."""
    values = np.zeros((len(corpus), len(vocab)), dtype=np.float64)
    for i, tokens in enumerate(map(tokenize, corpus)):
        for t in tokens:
            j = vocab.index.get(t)
            if j is not None:
                values[i, j] += 1.0
    cols = ["bow_%s" % t for t in vocab.terms]
    return FeatureMatrix(values, cols, ["bow"] * len(cols))


def idf_vector(vocab: Vocabulary) -> np.ndarray:
    """idf_j = ln(N / (1 + df_j)). Negative values are kept as computed:
    a term present in most documents of a small corpus gets idf < 0."""
    df = np.array(vocab.doc_freq, dtype=np.float64)
    return np.log(vocab.total_docs / (1.0 + df))


def tfidf(corpus: list[str], vocab: Vocabulary) -> FeatureMatrix:
    """tf (count over total in-vocabulary tokens of the document) times idf.
    Documents with no in-vocabulary tokens yield zero rows."""
    counts = bow(corpus, vocab).values
    totals = counts.sum(axis=1, keepdims=True)
    tf = np.divide(counts, totals, out=np.zeros_like(counts), where=totals > 0)
    values = tf * idf_vector(vocab)[None, :]
    cols = ["tfidf_%s" % t for t in vocab.terms]
    return FeatureMatrix(values, cols, ["tfidf"] * len(cols))
