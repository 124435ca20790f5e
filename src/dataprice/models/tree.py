"""Decision trees grown level by level, many at once: CART (squared error or
gini), the trees of a random forest (forest.py) and the rounds of gradient
boosting (gbt.py) all grow in `grow`.

The trees of one batch stack their rows in one matrix, tree after tree. A
fit sorts each tree's columns once, stably (the presort). One step grows
every tree of the batch by one depth: it searches all open nodes of that
depth, then partitions them all. Per column, a step keeps each node's rows
as one segment in that column's sorted order, plus one more row of
segments with the rows ascending. A split partitions each segment stably
into its two children, so a node's order is always exactly a stable sort
of its own rows, and no node sorts again.

The search scores blocks of nodes of similar size together: padded to the
size of the block's largest node, as one (nodes x rows x columns) array of
at most _BLOCK elements. Gains are computed only at candidate boundaries:
between consecutive distinct values, with at least min_leaf rows on each
side. A split needs a gain above 1e-12, a NaN gain rules its column out,
and ties go to the lower feature, then the lower threshold. Rows with value
<= threshold go left.

The trees are bit-identical to growing one node at a time by the same
arithmetic: cumulative sums run along each node's own rows from its first,
and every total is np.sum's over exactly the node's rows, in the order the
one-node grower took them (node_sums, segment_sums)."""

from __future__ import annotations

import numpy as np

from .base import Model, ModelError, register, require_finite

_BLOCK = 1 << 14  # elements per search block: bounds the temporaries
_MIN_BLOCK = 1 << 12  # below this, a block takes smaller nodes padded


def presort(X) -> np.ndarray:
    """The root order of one tree: (features x rows), each row stable."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


class Stack:
    """The rows of a batch of trees, tree after tree, and their presort,
    laid out for growth; every boosting round on the same rows shares it.

    X (rows x p) stacks the trees' rows and order (p x rows) is their
    presort as rows of X: per column, each tree's segment sorted. The
    stack adds a last row to the order that lists the rows ascending, and
    a padding row R (its last column) for nodes shorter than their block.
    xs holds the values of order's rows, 0 for the padding row, and Xt is X
    by column with the padding row: X[r, j] is Xt[j * (R + 1) + r]."""

    def __init__(self, X, order, tree_sizes):
        R, self.p = X.shape
        self.rows = R
        self.size = np.asarray(tree_sizes, dtype=np.int64)
        self.start = np.cumsum(self.size) - self.size
        self.order = np.hstack([np.vstack([order, np.arange(R)]),
                                np.full((self.p + 1, 1), R)])
        self.Xt = np.hstack([X.T, np.zeros((self.p, 1))]).ravel()
        self.xs = self.Xt[self.order[:-1]
                          + (np.arange(self.p) * (R + 1))[:, None]]


def grow(stack, crit, max_depth, min_leaf) -> list[dict]:
    """Grow one tree per tree of stack; return their roots.

    crit is the criterion (_Variance, _Gini or gbt's booster): level()
    takes the statistics of a depth's nodes, pure() marks those that stop
    before any search (or is None), gain() scores candidate splits and
    leaves() returns leaf dicts."""
    lo = max(1, min_leaf)
    order, xs, start, size = stack.order, stack.xs, stack.start, stack.size
    nodes = [{} for _ in size]
    roots = list(nodes)
    depth = 0
    while nodes:
        crit.level(order[-1], start, size)
        if depth >= max_depth or not stack.p:
            for node, leaf in zip(nodes, crit.leaves(np.arange(len(size)))):
                node.update(leaf)
            break
        feature = np.full(len(size), -1)
        threshold = np.zeros(len(size))
        open_ = size >= 2 * lo
        pure = crit.pure()
        if pure is not None:
            open_ &= ~pure
        _search(order, xs, start, size, open_.nonzero()[0], crit, lo,
                feature, threshold)
        split = (feature >= 0).nonzero()[0]
        leaves = (feature < 0).nonzero()[0]
        for i, leaf in zip(leaves.tolist(), crit.leaves(leaves)):
            nodes[i].update(leaf)
        lefts, rights = [{} for _ in split], [{} for _ in split]
        for i, j, thr, n, left, right in zip(
                split.tolist(), feature[split].tolist(),
                threshold[split].tolist(), size[split].tolist(), lefts, rights):
            nodes[i].update({"leaf": False, "feature": j, "threshold": thr,
                             "n": n, "left": left, "right": right})
        depth += 1
        if split.size:
            if depth == max_depth:  # leaves next, which need only the rows
                order, xs = order[-1:], xs[:0]
            order, xs, start, size = _partition(stack, order, xs, size,
                                                feature, threshold)
        nodes = lefts + rights
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


def _blocks(nodes, size, p):
    """(nodes, first column, end column) of each search block. nodes are
    sorted by size, descending, and a block pads them to the size of its
    first. It holds at most _BLOCK elements, and once it holds _MIN_BLOCK,
    no node of half that size or less. A node too big for one block is
    searched in blocks of columns."""
    s = size[nodes].tolist()
    i = 0
    while i < len(s):
        width = s[i]
        if width * p > _BLOCK:
            step = max(1, _BLOCK // width)
            for c in range(0, p, step):
                yield nodes[i:i + 1], c, min(p, c + step)
            i += 1
            continue
        j = i + 1
        while (j < len(s) and (j - i + 1) * width * p <= _BLOCK
               and (2 * s[j] > width or (j - i) * width * p < _MIN_BLOCK)):
            j += 1
        yield nodes[i:j], 0, p
        i = j


def _search(order, xs, start, size, which, crit, lo, feature, threshold):
    """Write the best split of each node in which to feature and threshold;
    a node without one keeps feature -1."""
    best = np.full(len(size), -np.inf)
    pad = order.shape[1] - 1
    if len(which) > 1:
        which = which[(-size[which]).argsort(kind="stable")]
    for nodes, c0, c1 in _blocks(which, size, len(order) - 1):
        n = size[nodes]
        b, pc, width = len(nodes), c1 - c0, int(n[0])
        span = np.arange(width)
        at = start[nodes][:, None] + span
        at[span >= n[:, None]] = pad
        # (nodes, rows, columns) of rows and of their values; NumPy lays
        # these gathers out in that order already
        rows = np.ascontiguousarray(order[c0:c1][:, at].transpose(1, 2, 0))
        v = np.ascontiguousarray(xs[c0:c1][:, at].transpose(1, 2, 0))
        pos = span[1:]
        sizes_ok = (pos >= lo) & (pos <= n[:, None] - lo)
        cand = ((v[:, :-1] < v[:, 1:]) & sizes_ok[:, :, None]).ravel().nonzero()[0]
        if not cand.size:
            continue
        # candidates run by node, then threshold, then column
        node = cand // ((width - 1) * pc)
        k = cand // pc - node * (width - 1)
        gain = crit.gain(rows, nodes, node, cand + node * pc, k + 1)
        # the first best gain of each (node, column), then of each node, so
        # that ties go to the lower feature, then the lower threshold
        dense = np.full((b, width - 1, pc), -np.inf)
        dense.ravel()[cand] = gain
        top = dense.max(axis=1)
        top[np.isnan(top)] = -np.inf  # a NaN gain rules its column out
        j = top.argmax(axis=1)
        better = (top[np.arange(b), j] > best[nodes]).nonzero()[0]
        if not better.size:
            continue
        j = j[better]
        k = dense[better, :, j].argmax(axis=1)
        won = nodes[better]
        best[won] = top[better, j]
        feature[won] = c0 + j
        threshold[won] = (v[better, k, j] + v[better, k + 1, j]) / 2
    feature[~(best > 1e-12)] = -1


def _partition(stack, order, xs, size, feature, threshold):
    """order, xs, starts and sizes of the children of the split nodes: the
    left children in the order of their parents, then the right ones. An
    order of the ascending rows alone partitions that alone."""
    split = feature >= 0
    at = split.repeat(size)  # the positions of the split nodes' rows
    rows = order[-1, :-1][at]
    right = (stack.Xt[feature.repeat(size)[at] * (stack.rows + 1) + rows]
             > threshold.repeat(size)[at])
    side = np.zeros(stack.rows + 1, dtype=np.int8)  # 0: a leaf's or padding
    side[rows] = 1 + right
    # each column holds the same rows, so each side keeps as many of them
    # per column, in their order
    code = side[order].ravel()
    q, width = order.shape
    at = np.concatenate([(code == 1).nonzero()[0].reshape(q, -1),
                         (code == 2).nonzero()[0].reshape(q, -1),
                         np.arange(width - 1, q * width, width)[:, None]],
                        axis=1)
    order = order.ravel()[at]
    if len(xs):  # xs's rows are the first of order's
        xs = xs.ravel()[at[:len(xs)]]
    lens = size[split]
    n_right = np.add.reduceat(right.astype(np.int64), lens.cumsum() - lens)
    size = np.concatenate([lens - n_right, n_right])
    return order, xs, size.cumsum() - size, size


class _Variance:
    """Squared error: the gain is s_L^2/n_L + s_R^2/n_R - S^2/n, with s and
    S sums of the targets y of the stacked rows."""

    def __init__(self, y):
        self.y = np.append(y, 0.0)

    def level(self, asc, start, size):
        self.asc, self.start, self.size = asc, start, size
        ys = self.y[asc[:-1]]
        self.same = (np.minimum.reduceat(ys, start)
                     == np.maximum.reduceat(ys, start))

    def pure(self):
        return self.same

    def gain(self, rows, nodes, node, flat, pos):
        ys = self.y[rows]
        b, width, pc = ys.shape
        n = self.size[nodes]
        # each (node, column) total is summed over the node's rows in that
        # column's order, as the one-node search took it
        lens = np.repeat(n, pc)
        runs = ys.transpose(0, 2, 1).reshape(-1, width)
        total = segment_sums(runs[np.arange(width) < lens[:, None]], lens)
        # S^2 squares Python floats (libm pow), whose last bit can differ
        # from NumPy's x*x; the trees depend on it
        const = np.array([t ** 2 for t in total.tolist()])
        cum = np.add.accumulate(ys, axis=1).ravel()[flat]
        at = node * pc + flat % pc
        m = n[node]
        return (cum ** 2 / pos + (total[at] - cum) ** 2 / (m - pos)
                - const[at] / m)

    def leaves(self, which):
        size = self.size[which]
        means = node_sums([self.y], self.asc, self.start[which], size)[0] / size
        return [{"leaf": True, "value": v, "n": n}
                for v, n in zip(means.tolist(), size.tolist())]


class _Gini:
    """Gini impurity decrease: the sum over the classes of the squared
    class counts, left over n_L plus right over n_R, minus the node's over
    n. The counts are integers, so every sum is exact."""

    def __init__(self, y, n_classes):
        self.y = y
        # class counts are exact in any type; small ones keep blocks small
        self.onehot = np.vstack([np.eye(n_classes, dtype=np.uint8)[y],
                                 np.zeros(n_classes, dtype=np.uint8)])

    def level(self, asc, start, size):
        c = self.onehot.shape[1]
        seg = np.arange(len(size)).repeat(size)
        self.counts = np.bincount(seg * c + self.y[asc[:-1]],
                                  minlength=len(size) * c).reshape(-1, c)
        self.size = size

    def pure(self):
        return self.counts.max(axis=1) == self.size

    def gain(self, rows, nodes, node, flat, pos):
        c = self.onehot.shape[1]
        cum = np.add.accumulate(self.onehot[rows], axis=1, dtype=np.int32)
        cum = cum.reshape(-1, c)[flat].astype(np.float64)
        at = nodes[node]
        total = self.counts[at]
        m = self.size[at]
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
    root, = grow(Stack(X, presort(X), [len(y)]), cart_criterion(y, n_classes),
                 max_depth, min_leaf)
    return CARTModel(root, n_classes,
                     hyperparams={"max_depth": max_depth, "min_leaf": min_leaf})
