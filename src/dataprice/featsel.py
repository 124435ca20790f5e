"""Maximum-relevance minimum-redundancy feature selection.

Continuous columns are discretized into equal-frequency bins, mutual
information is estimated by plug-in counts with natural log, and features
are picked greedily: each step maximizes relevance to the target minus the
average redundancy with the features already selected. Each candidate keeps
one running sum of its mutual information with the picks so far, added to
once per pick, so every (candidate, selected) pair is estimated once and
summed in pick order: the traces are those of re-summing at every step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .matrix import FeatureMatrix


@dataclass
class DiscretizedColumn:
    labels: np.ndarray
    n_bins: int
    edges: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.n_bins:
            raise ValueError("bin labels out of range")


@dataclass
class SelectionStep:
    feature: int
    relevance: float
    redundancy: float
    score: float


@dataclass
class SelectionTrace:
    steps: list[SelectionStep] = field(default_factory=list)
    columns: list[str] = field(default_factory=list)

    @property
    def selected(self) -> list[int]:
        return [s.feature for s in self.steps]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["step", "feature_index", "feature", "relevance",
                        "redundancy", "score"])
            for i, s in enumerate(self.steps):
                name = self.columns[s.feature] if self.columns else str(s.feature)
                w.writerow([i + 1, s.feature, name,
                            format(s.relevance, ".12g"),
                            format(s.redundancy, ".12g"),
                            format(s.score, ".12g")])


def discretize(column, n_bins: int = 10) -> DiscretizedColumn:
    """Equal-frequency binning via quantile edges. Tied values share a bin;
    a constant column collapses to a single bin."""
    x = np.asarray(column, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("column must be finite")
    qs = np.quantile(x, np.linspace(0, 1, n_bins + 1))
    inner = np.unique(qs[1:-1])
    # searchsorted with 'right' puts values equal to an edge in the lower bin
    labels = np.searchsorted(inner, x, side="left")
    # relabel to a dense 0..B-1 range in value order
    uniq, labels = np.unique(labels, return_inverse=True)
    edges = np.concatenate([[x.min()], inner, [x.max()]])
    return DiscretizedColumn(labels, len(uniq), edges)


def mutual_information(u: DiscretizedColumn, v: DiscretizedColumn) -> float:
    """Plug-in MI estimate in nats. Empty joint cells contribute zero."""
    a, b = u.labels, v.labels
    if len(a) != len(b):
        raise ValueError("length mismatch")
    joint = np.bincount(a * v.n_bins + b, minlength=u.n_bins * v.n_bins)
    joint = joint.reshape(u.n_bins, v.n_bins) / len(a)
    pu = joint.sum(axis=1)
    pv = joint.sum(axis=0)
    mask = joint > 0
    ratio = joint[mask] / (pu[:, None] * pv[None, :])[mask]
    return float(np.sum(joint[mask] * np.log(ratio)))


def mrmr_select(features: FeatureMatrix, target, m: int, n_bins: int = 10,
                target_is_discrete: bool = False) -> SelectionTrace:
    """Greedy incremental selection: the first feature maximizes mutual
    information with the target; each later step maximizes

        I(candidate, target) - mean over selected of I(candidate, selected)

    Ties break toward the lower column index. Asking for more features than
    exist selects all of them."""
    if m < 1:
        raise ValueError("m must be >= 1")
    y = np.asarray(target)
    if target_is_discrete or np.issubdtype(y.dtype, np.integer):
        labels = y.astype(np.int64)
        labels = labels - labels.min()
        tcol = DiscretizedColumn(labels, int(labels.max()) + 1,
                                 np.arange(labels.max() + 2, dtype=np.float64))
    else:
        tcol = discretize(y, n_bins)

    p = features.values.shape[1]
    cols = [discretize(features.values[:, j], n_bins) for j in range(p)]
    m = min(m, p)
    relevance = np.array([mutual_information(c, tcol) for c in cols])

    trace = SelectionTrace(columns=list(features.columns))
    # redundancy[i] sums I(candidate i, pick j) over the picks so far, in pick
    # order; the candidate goes first because the float estimate is not
    # bitwise symmetric in its arguments
    redundancy = np.zeros(p)
    unselected = np.ones(p, dtype=bool)
    for step in range(m):
        red = redundancy / step if step else redundancy
        score = np.where(unselected, relevance - red, -np.inf)
        j = int(np.argmax(score))  # the first maximum: the lower column
        trace.steps.append(SelectionStep(j, float(relevance[j]), float(red[j]),
                                         float(score[j])))
        unselected[j] = False
        if step < m - 1:
            for i in np.flatnonzero(unselected):
                redundancy[i] += mutual_information(cols[i], cols[j])
    return trace
