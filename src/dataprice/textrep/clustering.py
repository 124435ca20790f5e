"""The parts of BERTopic-style cluster topics (Grootendorst 2022).

The bertopic representation (`evaluate.fit_representation`) projects
average-pooled skip-gram document vectors onto their top centered
principal components (`PCAReducer`), clusters them by seeded k-means
(`kmeans`), and gives each document the softmax of its negative centroid
distances (`membership_probabilities`). The vectors come from word2vec's
embedding table: `evaluate` runs word2vec and bertopic of a fold in one
unit, which fits the table once under word2vec's seed label (and so does a
grid or curve with bertopic alone), and `featurize` fits one table for
both. `ctfidf` weighs terms per cluster by class-based TF-IDF over
cluster-merged documents.
"""

from __future__ import annotations

import numpy as np


class PCAReducer:
    """Centered principal-component projection, fitted on training vectors
    so held-out vectors can be reduced consistently."""

    def __init__(self, mean: np.ndarray, components: np.ndarray | None):
        self.mean = mean
        self.components = components  # (r, d) rows, or None for identity

    @staticmethod
    def fit(vectors: np.ndarray, r: int) -> "PCAReducer":
        X = np.asarray(vectors, dtype=np.float64)
        mean = X.mean(axis=0)
        if r >= min(X.shape):
            return PCAReducer(mean, None)
        _, _, vt = np.linalg.svd(X - mean, full_matrices=False)
        return PCAReducer(mean, vt[:r])

    def transform(self, vectors: np.ndarray) -> np.ndarray:
        Xc = np.asarray(vectors, dtype=np.float64) - self.mean
        return Xc if self.components is None else Xc @ self.components.T


def membership_probabilities(reduced: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Softmax of negative centroid distances, one row per document."""
    dist = np.linalg.norm(reduced[:, None, :] - centroids[None, :, :], axis=2)
    scores = -(dist - dist.min(axis=1, keepdims=True))
    expd = np.exp(scores)
    return expd / expd.sum(axis=1, keepdims=True)


def kmeans(X: np.ndarray, n_clusters: int, seed: int = 0,
           max_iter: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with seeded initial centroids drawn from the data.
    Returns (labels, centroids)."""
    n = X.shape[0]
    if n_clusters > n:
        raise ValueError("n_clusters exceeds number of documents")
    rng = np.random.default_rng(seed)
    centroids = X[rng.choice(n, size=n_clusters, replace=False)].copy()
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        dist = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
        new_labels = np.argmin(dist, axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(n_clusters):
            mask = labels == c
            if mask.any():
                centroids[c] = X[mask].mean(axis=0)
    return labels, centroids


def ctfidf(cluster_token_counts: np.ndarray) -> np.ndarray:
    """Class-based TF-IDF: weight(t, c) = tf_tc * ln(1 + A / tf_t), where
    tf_t sums the term over all cluster-merged documents and A is the
    average token count of a cluster-merged document."""
    counts = np.asarray(cluster_token_counts, dtype=np.float64)
    tf_t = counts.sum(axis=0)
    A = counts.sum() / counts.shape[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(tf_t > 0, np.log1p(A / np.where(tf_t > 0, tf_t, 1.0)), 0.0)
    return counts * factor[None, :]
