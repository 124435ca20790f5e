"""Maximum-relevance minimum-redundancy feature selection.

Continuous columns are discretized into equal-frequency bins, mutual
information is estimated by plug-in counts with natural log, and features
are picked greedily: each step maximizes relevance to the target minus the
average redundancy with the features already selected. Each candidate keeps
one running sum of its mutual information with the picks so far, added to
once per pick, so every (candidate, selected) pair is estimated once and
summed in pick order: the traces are those of re-summing at every step.

Every column is binned in one pass, and mutual information is estimated
for a stack of columns against one column in one call: one call gives the
relevance of every column, and one call per pick updates the redundancy of
every remaining candidate. Each estimate of a stack has the bits of
estimating its column alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .matrix import FeatureMatrix
from .models.tree import segment_sums


@dataclass
class DiscretizedColumn:
    """The bin labels of one column: labels (n,), n_bins an int and edges
    one array. Or a stack of c columns: labels (c, n), and n_bins and edges
    one per column."""
    labels: np.ndarray
    n_bins: int | np.ndarray
    edges: np.ndarray | list

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if (np.any(self.labels.min(axis=-1, initial=0) < 0)
                or np.any(self.labels.max(axis=-1, initial=0) >= self.n_bins)):
            raise ValueError("bin labels out of range")

    def take(self, index):
        """Column index of a stack, or the stack of the columns in index.
        The cut's labels were checked with the stack's, so it is built
        without the range check."""
        if np.ndim(index) == 0:
            parts = self.labels[index], int(self.n_bins[index]), self.edges[index]
        else:
            parts = (self.labels[index], self.n_bins[index],
                     [self.edges[i] for i in index.tolist()])
        cut = object.__new__(DiscretizedColumn)
        cut.labels, cut.n_bins, cut.edges = parts
        return cut


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


def discretize(values, n_bins: int = 10) -> DiscretizedColumn:
    """Equal-frequency binning via quantile edges. Tied values share a bin;
    a constant column collapses to a single bin. A matrix (rows x columns)
    gives the stack of its columns, all binned at once; a 1-D input is a
    matrix of one column and gives that column.

    A value's label is the number of distinct inner edges below it, so a
    value equal to an edge goes in the lower bin; the labels are then made
    dense, 0..B-1 in value order."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("expected a column or a matrix, got %d dimensions"
                         % x.ndim)
    if len(x) == 0:
        raise ValueError("nothing to discretize: no rows")
    if not np.isfinite(x).all():
        raise ValueError("column must be finite")
    xt = np.ascontiguousarray(x.reshape(len(x), -1).T)
    qs = np.quantile(xt, np.linspace(0, 1, n_bins + 1), axis=1)
    inner = np.sort(qs[1:-1], axis=0)
    distinct = np.ones(inner.shape, dtype=bool)
    distinct[1:] = inner[1:] != inner[:-1]
    # an edge repeated in its column counts once: its copies never compare
    labels = np.zeros(xt.shape, dtype=np.int64)
    for edge in np.where(distinct, inner, np.inf):
        labels += xt > edge[:, None]
    occupied = np.zeros((len(xt), len(inner) + 1), dtype=bool)
    occupied[np.arange(len(xt))[:, None], labels] = True
    labels = np.take_along_axis(occupied.cumsum(axis=1) - 1, labels, axis=1)
    edges = [np.concatenate([[lo], q[d], [hi]]) for lo, q, d, hi
             in zip(xt.min(axis=1), inner.T, distinct.T, xt.max(axis=1))]
    if x.ndim == 1:
        return DiscretizedColumn(labels[0], int(occupied[0].sum()), edges[0])
    return DiscretizedColumn(labels, occupied.sum(axis=1), edges)


def mutual_information(u: DiscretizedColumn, v: DiscretizedColumn):
    """Plug-in MI estimate in nats of u with v. Empty joint cells contribute
    zero. For a stack u, one estimate per column of u, as an array.

    The joint counts of all of u's columns come from one bincount, each
    column's bins padded with empty ones to the stack's largest bin count.
    Every estimate keeps the bits of estimating its column alone: a u bin's
    sum over v runs over the same values, a v bin's sum over u adds the
    padding's zeros after the same values (NumPy adds a lone v bin's values
    pairwise, so there the padding is left out), and each column's terms
    are summed by segment_sums, which is np.sum bit for bit."""
    a = u.labels.reshape(-1, u.labels.shape[-1])
    b = v.labels
    if a.shape[1] != len(b):
        raise ValueError("length mismatch")
    c, n = a.shape
    nu = np.asarray(u.n_bins).reshape(-1)
    width, nv = int(nu.max(initial=1)), int(v.n_bins)
    keys = a * nv
    keys += b
    keys += (np.arange(c) * (width * nv))[:, None]
    joint = np.bincount(keys.ravel(), minlength=c * width * nv)
    joint = joint.reshape(c, width, nv) / n
    pu = joint.sum(axis=2)
    if nv == 1:
        pv = segment_sums(joint[np.arange(width) < nu[:, None], 0], nu)[:, None]
    else:
        pv = joint.sum(axis=1)
    mask = joint > 0
    ratio = joint[mask] / (pu[:, :, None] * pv[:, None, :])[mask]
    mi = segment_sums(joint[mask] * np.log(ratio), mask.sum(axis=(1, 2)))
    return mi if u.labels.ndim == 2 else float(mi[0])


def _target_column(target, n_bins: int,
                   discrete: bool | None) -> DiscretizedColumn:
    """The target's bins: one per class that occurs, in class order, when it
    is discrete (None: when it is of an integer type); else equal-frequency
    bins. Classes that do not occur get no bin, so sparse class values such
    as 0 and 10**6 cost two bins, not a million."""
    y = np.asarray(target)
    if discrete is None:
        discrete = np.issubdtype(y.dtype, np.integer)
    if not discrete:
        return discretize(y, n_bins)
    if not np.issubdtype(y.dtype, np.integer):
        y = np.asarray(y, dtype=np.float64)
        if not np.isfinite(y).all():
            raise ValueError("a discrete target must be finite")
        fractional = y != np.floor(y)
        if fractional.any():
            raise ValueError("a discrete target must hold whole numbers, got %r"
                             % float(y[fractional][0]))
    classes, labels = np.unique(y, return_inverse=True)
    return DiscretizedColumn(labels, len(classes),
                             np.arange(len(classes) + 1, dtype=np.float64))


def mrmr_select(features: FeatureMatrix, target, m: int, n_bins: int = 10,
                target_is_discrete: bool | None = None) -> SelectionTrace:
    """Greedy incremental selection: the first feature maximizes mutual
    information with the target; each later step maximizes

        I(candidate, target) - mean over selected of I(candidate, selected)

    Ties break toward the lower column index. Asking for more features than
    exist selects all of them. The target is discrete when
    target_is_discrete says so, or by default when it is of an integer type;
    a target that is not is cut into n_bins equal-frequency bins."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(features.values) == 0:
        raise ValueError("mRMR needs at least one row")
    tcol = _target_column(target, n_bins, target_is_discrete)
    cols = discretize(features.values, n_bins)
    p = features.values.shape[1]
    m = min(m, p)
    relevance = mutual_information(cols, tcol)

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
            rest = np.flatnonzero(unselected)
            redundancy[rest] += mutual_information(cols.take(rest), cols.take(j))
    return trace
