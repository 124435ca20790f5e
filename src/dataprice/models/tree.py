"""Decision trees grown level by level, many at once: CART (squared error or
gini), the trees of a random forest (forest.py) and the rounds of gradient
boosting (gbt.py) all grow in `grow`.

A fit codes each column of X once, as the index of each value among the
column's sorted distinct values (Binned). The trees grown together are
blocks of stack rows, and each stack row stands for one row of X: a forest
tree's block is its bootstrap sample, and each boosted target's block is
all of X. Every node keeps its stack rows ascending.

One step grows every tree by one depth. For the open nodes of that depth
it takes a histogram (Ke et al., "LightGBM", NeurIPS 2017): per (node,
column, value) the row count and the sums of the criterion's statistics,
each one np.bincount over the rows in ascending order. A forest node's
histogram covers only its drawn columns. The bins are numbered through a
table of every bin of the open nodes' columns while that table is small,
else by sorting, so a deep level of many small nodes holds no more bins
than it has (row, column) pairs. Cumulative sums run over each (node,
column)'s occurring values, ascending, one value at a time. The
candidate splits lie between consecutive occurring values, with at least
min_leaf rows on each side, and the threshold is the midpoint of the two
values. A split needs a gain above 1e-12, a NaN gain rules its column
out, and ties go to the lower feature, then the lower threshold. Rows
with value <= threshold go left; the children of a node follow each
other, left first, in the next level's order.

Gini counts are integers, so those trees equal growing one node at a time
on the rows sorted by value, bit for bit. A float criterion sums each
value's statistics in row order before it cumulates them; node totals and
leaf values are np.sum's over the node's rows, ascending (node_sums)."""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite


class Binned:
    """The columns of X coded by value: codes[j, i] is the index of X[i, j]
    among the sorted distinct values of column j, which lie in values from
    offset[j] on, width[j] of them. Codes are uint8 when no column has more
    than 256 values, else uint16."""

    def __init__(self, X):
        self.X = X
        n, self.p = X.shape
        order = np.argsort(X, axis=0)
        xs = np.take_along_axis(X, order, axis=0)
        new = np.ones(X.shape, dtype=bool)
        new[1:] = xs[1:] != xs[:-1]
        self.width = new.sum(axis=0)
        self.values = np.concatenate([xs[new[:, j], j] for j in range(self.p)]
                                     + [np.zeros(0)])
        self.offset = self.width.cumsum() - self.width  # column j in values
        dtype = np.uint8 if self.width.max(initial=0) <= 256 else np.uint16
        self.codes = np.empty((self.p, n), dtype=dtype)
        np.put_along_axis(self.codes, order.T, new.T.cumsum(axis=1) - 1,
                          axis=1)


def grow(binned, src, sizes, crit, max_depth, min_leaf,
         draw=None) -> list[dict]:
    """Grow one tree per block of stack rows; return their roots.

    Stack row i stands for row src[i] of binned, and tree t owns the
    sizes[t] stack rows after those of the trees before it. crit is the
    criterion (_Variance, _Gini or gbt's booster): level() takes the
    statistics of a depth's nodes, pure() marks those that stop before any
    search (or is None), hist() sums the statistics of the search's
    entries per histogram bin, gain() scores candidate splits and leaves()
    returns leaf dicts. draw(trees), given the tree of each node to search
    in level order, returns the sorted columns each searches (nodes x k);
    without it every node searches every column."""
    lo = max(1, min_leaf)
    size = np.asarray(sizes, dtype=np.int64)
    rows = np.arange(size.sum())
    tree = np.arange(len(size))
    nodes = [{} for _ in size]
    roots = list(nodes)
    depth = 0
    while nodes:
        start = size.cumsum() - size
        crit.level(rows, start, size)
        if depth >= max_depth or not binned.p:
            for node, leaf in zip(nodes, crit.leaves(np.arange(len(size)))):
                node.update(leaf)
            break
        open_ = size >= 2 * lo
        pure = crit.pure()
        if pure is not None:
            open_ &= ~pure
        which = open_.nonzero()[0]
        cols = None if draw is None else draw(tree[which])
        feature = np.full(len(size), -1)
        threshold = np.zeros(len(size))
        _search(binned, src, rows, start, size, which, cols, crit, lo,
                feature, threshold)
        split = (feature >= 0).nonzero()[0]
        leaves = (feature < 0).nonzero()[0]
        for i, leaf in zip(leaves.tolist(), crit.leaves(leaves)):
            nodes[i].update(leaf)
        children = []
        for i, j, thr, n in zip(split.tolist(), feature[split].tolist(),
                                threshold[split].tolist(), size[split].tolist()):
            left, right = {}, {}
            nodes[i].update({"leaf": False, "feature": j, "threshold": thr,
                             "n": n, "left": left, "right": right})
            children += [left, right]
        rows, size = _partition(binned, src, rows, size, feature, threshold)
        tree = tree[split].repeat(2)
        nodes = children
        depth += 1
    return roots


def node_sums(values, asc, start, size) -> np.ndarray:
    """np.sum of each of values over each node's rows, ascending, bit for
    bit: (k x nodes) for a sequence of k arrays over the rows. asc lists
    the rows of each node (start, size) in order."""
    packed = size.cumsum() - size  # where each node's rows go in the gather
    rows = asc[np.arange(size.sum()) + np.repeat(start - packed, size)]
    return segment_sums(np.concatenate([v[rows] for v in values]),
                        np.tile(size, len(values))).reshape(len(values), -1)


def segment_sums(values, lengths) -> np.ndarray:
    """np.sum of each run of values, bit for bit, where the runs lie one
    after another, lengths[i] values each.

    np.sum adds the values by NumPy's pairwise sum, then adds that to 0.
    With a 0 in front of each run, one np.add.reduceat from the zeros does
    the same for every run: it starts from the 0 and passes the run to the
    same pairwise loop."""
    lengths = np.asarray(lengths)
    k = len(lengths)
    laid = np.zeros(len(values) + k)
    at = np.arange(len(values)) + np.repeat(np.arange(1, k + 1), lengths)
    laid[at] = values
    return np.add.reduceat(laid, lengths.cumsum() - lengths + np.arange(k))


def segment_cumsums(values, lengths) -> np.ndarray:
    """np.cumsum of each run of each array of values, bit for bit, as one
    (values per array x arrays) array. The runs lie one after another in
    each array, lengths[i] values each, all at least 1.

    The runs are laid out by position, longest first: the first value of
    every run, then the second of every run at least two long, and so on.
    One slice add per position then extends every run that has it, as
    np.cumsum adds each value to the sum before it."""
    lengths = np.asarray(lengths)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    longest = int(lengths[order[0]]) if len(order) else 0
    # runs longer than i, and where position i starts in the layout
    n_at = len(lengths) - np.bincount(lengths, minlength=longest).cumsum()
    first = n_at.cumsum() - n_at
    at = first[np.arange(lengths.sum())
               - np.repeat(lengths.cumsum() - lengths, lengths)]
    at += rank.repeat(lengths)
    where = np.empty_like(at)
    where[at] = np.arange(len(at))
    laid = np.empty((len(at), len(values)))
    for j, v in enumerate(values):
        laid[:, j] = v.take(where)
    starts = first[:longest].tolist()
    for b, a, m in zip(starts, starts[1:], n_at[1:longest].tolist()):
        laid[a:a + m] += laid[b:b + m]
    return laid.take(at, axis=0)


def _search(binned, src, rows, start, size, which, cols, crit, lo, feature,
            threshold):
    """Write the best split of each node in which to feature and threshold;
    a node without one keeps feature -1. Node which[i] searches the
    columns cols[i], or every column when cols is None."""
    m, k = len(which), binned.p if cols is None else cols.shape[1]
    if not m:
        return
    n = size[which]
    node = np.arange(m).repeat(n)
    r = rows[(start[which] - n.cumsum() + n).repeat(n) + np.arange(n.sum())]
    # one entry per (column slot, row) pair of each node, slot by slot;
    # the bins of group (node, slot) take the keys from first[group] on
    if cols is None:
        code = binned.codes[:, src[r]]
        width = np.tile(binned.width, m)
    else:
        code = binned.codes[cols[node].T, src[r]]
        width = binned.width[cols].ravel()
    first = width.cumsum() - width
    key = (first.reshape(m, k).T[:, node] + code).ravel()
    space = int(width.sum())
    keys = None
    # a table of every bin costs a pass over it; when it would outgrow the
    # entries and 2 ** 16 bins, sorting numbers the bins that occur
    if space > max(len(key), 1 << 16):
        keys, key = np.unique(key, return_inverse=True)
        space = len(keys)
    stats = [np.bincount(key, minlength=space), *crit.hist(key, r, k, space)]
    if keys is None:
        keys = stats[0].nonzero()[0]
        stats = [v.take(keys) for v in stats]
    group = first.searchsorted(keys, side="right") - 1
    # a candidate is a bin with a next one in its group
    cand = (group[1:] == group[:-1]).nonzero()[0]
    cum = segment_cumsums(stats, np.bincount(group, minlength=m * k))
    cum = cum.take(cand, axis=0)
    pos = cum[:, 0]
    cnode = group[cand] // k
    ok = ((pos >= lo) & (pos <= n[cnode] - lo)).nonzero()[0]
    cand, cum, cnode = cand[ok], cum.take(ok, axis=0), cnode[ok]
    if not cand.size:
        return
    gain = crit.gain(which[cnode], cum[:, 0], cum[:, 1:])
    bad = np.isnan(gain)
    if bad.any():  # a NaN gain rules its column out
        gain[np.isin(group[cand], group[cand[bad]])] = -np.inf
    # candidates run by node, then column, then threshold: the first best
    # gain of each node is its split
    head = np.ones(len(cand), dtype=bool)
    head[1:] = cnode[1:] != cnode[:-1]
    head = head.nonzero()[0]
    best = np.maximum.reduceat(gain, head)
    top = (gain == best.repeat(np.diff(head, append=len(gain)))).nonzero()[0]
    won = np.ones(len(top), dtype=bool)
    won[1:] = cnode[top[1:]] != cnode[top[:-1]]
    c = cand[top[won][best > 1e-12]]
    g = group[c]
    j = g % k if cols is None else cols.ravel()[g]
    at = binned.offset[j] - first[g]
    out = which[g // k]
    feature[out] = j
    threshold[out] = (binned.values[at + keys[c]]
                      + binned.values[at + keys[c + 1]]) / 2


def _partition(binned, src, rows, size, feature, threshold):
    """rows and sizes of the children of the split nodes, each split
    node's left child, then its right one."""
    split = feature >= 0
    at = split.repeat(size)
    rows = rows[at]
    n = size[split]
    right = (binned.X[src[rows], feature.repeat(size)[at]]
             > threshold.repeat(size)[at])
    child = 2 * np.repeat(np.arange(len(n)), n) + right
    size = np.bincount(child, minlength=2 * len(n))
    return rows[np.argsort(child, kind="stable")], size


class _Variance:
    """Squared error: the gain is s_L^2/n_L + s_R^2/n_R - S^2/n, with s and
    S sums of the targets y of the stack rows."""

    def __init__(self, y):
        self.y = y

    def level(self, asc, start, size):
        self.asc, self.start, self.size = asc, start, size
        ys = self.y[asc]
        self.same = (np.minimum.reduceat(ys, start)
                     == np.maximum.reduceat(ys, start))
        self.total = node_sums([self.y], asc, start, size)[0]
        # S^2 squares Python floats (libm pow), whose last bit can differ
        # from NumPy's x*x; the trees depend on it
        self.const = np.array([t ** 2 for t in self.total.tolist()])

    def pure(self):
        return self.same

    def hist(self, key, rows, k, bins):
        return [np.bincount(key, np.tile(self.y[rows], k), minlength=bins)]

    def gain(self, node, pos, cum):
        cum = cum[:, 0]
        m = self.size[node]
        return (cum ** 2 / pos + (self.total[node] - cum) ** 2 / (m - pos)
                - self.const[node] / m)

    def leaves(self, which):
        size = self.size[which]
        means = self.total[which] / size
        return [{"leaf": True, "value": v, "n": n}
                for v, n in zip(means.tolist(), size.tolist())]


class _Gini:
    """Gini impurity decrease: the sum over the classes of the squared
    class counts, left over n_L plus right over n_R, minus the node's over
    n. The counts are integers, so every sum is exact."""

    def __init__(self, y, n_classes):
        self.y, self.c = y, n_classes

    def level(self, asc, start, size):
        seg = np.arange(len(size)).repeat(size)
        self.counts = np.bincount(seg * self.c + self.y[asc],
                                  minlength=len(size) * self.c).reshape(-1, self.c)
        self.size = size

    def pure(self):
        return self.counts.max(axis=1) == self.size

    def hist(self, key, rows, k, bins):
        return np.bincount(key + bins * np.tile(self.y[rows], k),
                           minlength=bins * self.c).reshape(self.c, bins)

    def gain(self, node, pos, cum):
        total = self.counts[node]
        m = self.size[node]
        return (np.add.reduce(cum ** 2, axis=1) / pos
                + np.add.reduce((total - cum) ** 2, axis=1) / (m - pos)
                - np.add.reduce(total ** 2, axis=1) / m)

    def leaves(self, which):
        counts = self.counts[which]
        probs = counts / counts.sum(axis=1, keepdims=True)
        return [{"leaf": True, "value": v, "probs": pr, "n": n}
                for v, pr, n in zip(np.argmax(counts, axis=1).tolist(),
                                    probs.tolist(), self.size[which].tolist())]


def cart_criterion(y, n_classes):
    """The criterion of CART trees on targets y: squared error when
    n_classes is None, else gini over n_classes classes."""
    return _Variance(y) if n_classes is None else _Gini(y, n_classes)


class FlatTree:
    """A dict tree laid out as arrays, so that many rows descend it together
    one level per step: nodes breadth first, each leaf its own child. The
    leaf arrays give inner nodes the values of some leaf; no row ends there."""

    def __init__(self, root):
        nodes, depth, links = [root], [0], []
        for i, node in enumerate(nodes):  # the list grows as it goes
            if node["leaf"]:
                links.append((0, 0.0, i, i))
                continue
            k = len(nodes)
            links.append((node["feature"], node["threshold"], k, k + 1))
            nodes += [node["left"], node["right"]]
            depth += [depth[i] + 1] * 2
        self.feature, self.threshold, self.left, self.right = map(
            np.array, zip(*links))
        self.depth = max(depth)
        pad = next(n for n in nodes if n["leaf"])
        leaves = [n if n["leaf"] else pad for n in nodes]
        self.leaf = {key: np.array([n[key] for n in leaves])
                     for key in ("value", "probs") if key in pad}

    def values(self, X, key: str = "value") -> np.ndarray:
        """node[key] of the leaf each row of X falls in."""
        at = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        for _ in range(self.depth):
            go_left = X[rows, self.feature[at]] <= self.threshold[at]
            at = np.where(go_left, self.left[at], self.right[at])
        return self.leaf[key][at]


@register
class CARTModel(Model):
    family = "cart"

    def __init__(self, root, n_classes=None, **kw):
        task = "regression" if n_classes is None else "classification"
        super().__init__(task, **kw)
        self.root = root
        self.flat = FlatTree(root)
        self.n_classes = n_classes

    def predict(self, X):
        out = self.flat.values(self._check_input(X))
        return out.astype(np.int64 if self.task == "classification" else np.float64)

    def predict_scores(self, X):
        """Leaf class proportions per row (classification only)."""
        if self.task != "classification":
            raise ModelError("scores are only defined for classification trees")
        return self.flat.values(self._check_input(X), "probs")

    def params_dict(self):
        return {"root": self.root, "n_classes": self.n_classes}


def cart_targets(y, task, n_classes=None):
    """(targets, n_classes) of a CART fit: integer classes and their count
    for classification, float targets and None for regression."""
    if task == "classification":
        y = np.asarray(y, dtype=np.int64)
        if n_classes is None:
            n_classes = int(y.max()) + 1
        return y, n_classes
    return np.asarray(y, dtype=np.float64), None


def fit_cart(X, y, max_depth: int = 10, min_leaf: int = 1,
             task: str = "regression", n_classes: int | None = None) -> CARTModel:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    require_finite(X, y)
    y, n_classes = cart_targets(y, task, n_classes)
    if len(y) < min_leaf:
        raise ModelError("fewer rows than min_leaf")
    root, = grow(Binned(X), np.arange(len(y)), [len(y)],
                 cart_criterion(y, n_classes), max_depth, min_leaf)
    return CARTModel(root, n_classes,
                     hyperparams={"max_depth": max_depth, "min_leaf": min_leaf})
