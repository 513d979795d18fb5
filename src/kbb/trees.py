"""Regression trees with exact greedy axis-aligned splits.

Splits minimize the sum of squared errors; candidate thresholds are the
midpoints between consecutive distinct sorted feature values.  Ties are
broken deterministically: lowest feature index first, then the smallest
threshold.  Leaves predict the mean of their targets.

Each feature column is argsorted once per fit (``presort``; once per
ensemble when a booster passes the orders in), and every split
stable-partitions those orders into its children, so no node sorts.  The
stable order of a node's rows is the node's subset of the global stable
order, so the trees are those of a per-node stable argsort, bit for bit.
``best_split`` searches all of a node's features in one call.

A fit allocates each node's two children next to each other, so the walk
needs only ``right``: one step is ``right - (x <= threshold)``, and leaves
loop to themselves behind NaN thresholds.  ``walk`` runs all trees of a
``node_table`` at once; ``leaf_values`` builds the table and walks it for
``RegressionTree.predict``, where one tree walks faster than it builds and
scores tables.

A boosted ensemble is scored by QuickScorer (Lucchese et al., SIGIR 2015):
``bitmask_table`` builds, once per ensemble, one table of ANDed node masks
per feature, and ``bitmask_values`` finds each row's exit leaf in every tree
with one ``searchsorted`` per feature.  It is exact: it reaches the walk's
leaf, with NaN rows going right and rows on a threshold going left.  Masks
hold up to 64 leaves; an ensemble with a larger tree keeps the walk.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "BLOCK_CELLS",
    "RegressionTree",
    "best_split",
    "bitmask_table",
    "bitmask_values",
    "leaf_values",
    "node_table",
    "presort",
    "walk",
]

# Rows x trees walked per block of an ensemble evaluation: the block's index
# arrays stay within L2.
BLOCK_CELLS = 1 << 15


def presort(x: np.ndarray) -> np.ndarray:
    """(features, rows) matrix whose row f is the stable argsort of x[:, f]."""
    return np.argsort(x.T, axis=1, kind="stable")


def best_split(sv: np.ndarray, sy: np.ndarray, min_leaf: int):
    """Best SSE-reducing split of one node, over all its features at once.

    Row f of ``sv`` holds the node's values of feature f in stable ascending
    order and row f of ``sy`` the targets in the same order.  Returns (score,
    feature, threshold) where score = sum_L^2/n_L + sum_R^2/n_R is to be
    maximized (total sum of squares is constant), or None when no valid split
    exists.  Only the cuts leaving ``min_leaf`` rows on each side are scored;
    a cut between equal values scores -inf.  The first maximizer wins: the
    lowest feature, then the smallest threshold.
    """
    n = sv.shape[1]
    if n < 2 * min_leaf:
        return None
    lo, hi = min_leaf - 1, n - min_leaf  # cut c in [lo, hi) sends sorted rows 0..c left
    csum = np.cumsum(sy, axis=1)
    left_sum = csum[:, lo:hi]
    n_left = np.arange(lo + 1, hi + 1)
    score = left_sum**2 / n_left + (csum[:, -1:] - left_sum) ** 2 / (n - n_left)
    score[~(sv[:, lo:hi] < sv[:, lo + 1 : hi + 1])] = -np.inf
    # The first maximum in row-major order: lowest feature, then first cut.
    f, j = divmod(int(score.argmax()), hi - lo)
    if score[f, j] == -np.inf:
        return None
    return float(score[f, j]), f, float(0.5 * (sv[f, lo + j] + sv[f, lo + j + 1]))


def _stacked(trees) -> tuple:
    """(roots, feature, threshold, right, value, levels) of all trees' nodes,
    stacked in tree order with ``right`` offset to match; ``levels`` lists
    the reachable internal nodes level by level from the roots."""
    roots = np.cumsum([0] + [t.feature.shape[0] for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    right = np.concatenate([t.right + root for t, root in zip(trees, roots)])
    levels = []
    frontier = roots[feature[roots] >= 0]
    while frontier.size:
        levels.append(frontier)
        children = np.concatenate([right[frontier] - 1, right[frontier]])
        frontier = children[feature[children] >= 0]
    threshold = np.concatenate([t.threshold for t in trees])
    return roots, feature, threshold, right, np.concatenate([t.value for t in trees]), levels


def node_table(trees) -> tuple:
    """The stacked nodes of all trees, as ``walk`` reads them.

    Returns (roots, feature, threshold, right, value, depth); leaves have
    feature 0, a NaN threshold and ``right`` pointing at themselves, and
    depth counts the levels of internal nodes of the deepest tree.
    """
    roots, feature, threshold, right, value, levels = _stacked(trees)
    is_leaf = feature < 0
    right = np.where(is_leaf, np.arange(feature.shape[0]), right)
    return roots, np.where(is_leaf, 0, feature), np.where(is_leaf, np.nan, threshold), right, value, len(levels)


def walk(table: tuple, x: np.ndarray) -> np.ndarray:
    """(rows, trees) matrix of the leaf value each row of x reaches in each
    tree of ``table``; a row equal to a threshold goes left, a NaN goes right."""
    roots, feature, threshold, right, value, depth = table
    flat = np.ascontiguousarray(x).reshape(-1)
    base = (np.arange(x.shape[0]) * x.shape[1])[:, None]
    idx = np.broadcast_to(roots, (x.shape[0], roots.shape[0]))
    for _ in range(depth):
        idx = right[idx] - (flat[base + feature[idx]] <= threshold[idx])
    return value[idx]


def bitmask_table(trees) -> tuple | None:
    """QuickScorer tables of an ensemble, as ``bitmask_values`` reads them,
    or None when a tree has more than 64 leaves.

    Each tree's leaves are numbered left to right, and each internal node's
    mask clears the bits of the leaves of its left subtree.  A row leaves a
    tree at the lowest bit left set in the AND of the masks of the nodes it
    fails (x > threshold).  For each feature, every tree's thresholds on it
    are sorted stably, and row k of the feature's (thresholds + 1, trees)
    prefix table holds, per tree, the AND of the masks of the k smallest.
    Returns (a (feature, sorted thresholds, prefix table) triple per split
    feature, the leaf values as a flat (trees, width) array, and each tree's
    offset into it less one).
    """
    roots, feature, threshold, right, value, levels = _stacked(trees)
    tree_of = np.repeat(np.arange(len(trees)), [t.feature.shape[0] for t in trees])
    inner = np.concatenate([np.empty(0, dtype=np.int64)] + levels)
    left = right[inner] - 1
    n_leaves = (feature < 0).astype(np.int64)  # leaves under each node
    for nodes in reversed(levels):
        n_leaves[nodes] = n_leaves[right[nodes] - 1] + n_leaves[right[nodes]]
    width = int(n_leaves[roots].max())
    if width > 64:
        return None
    first = np.zeros(feature.shape[0], dtype=np.int64)  # number of the node's leftmost leaf
    for nodes in levels:
        first[right[nodes] - 1] = first[nodes]
        first[right[nodes]] = first[nodes] + n_leaves[right[nodes] - 1]
    reached = np.concatenate([roots, left, left + 1])
    leaves = reached[feature[reached] < 0]
    leaf_value = np.zeros(len(trees) * width)
    leaf_value[tree_of[leaves] * width + first[leaves]] = value[leaves]

    # A left subtree holds at most 63 of its tree's leaves, so no shift overflows.
    dtype = next(dt for dt in (np.uint8, np.uint16, np.uint32, np.uint64) if width <= np.iinfo(dt).bits)
    span = (np.uint64(1) << n_leaves[left].astype(np.uint64)) - np.uint64(1)
    mask = (~(span << first[inner].astype(np.uint64))).astype(dtype)
    features = []
    for f in np.unique(feature[inner]).tolist():
        nodes = np.flatnonzero(feature[inner] == f)
        nodes = nodes[np.argsort(threshold[inner[nodes]], kind="stable")]
        prefix = np.full((nodes.shape[0] + 1, len(trees)), np.iinfo(dtype).max, dtype=dtype)
        prefix[np.arange(1, nodes.shape[0] + 1), tree_of[inner[nodes]]] = mask[nodes]
        features.append((f, threshold[inner[nodes]], np.bitwise_and.accumulate(prefix, axis=0)))
    return features, leaf_value, np.arange(len(trees)) * width - 1


def bitmask_values(table: tuple, x: np.ndarray) -> np.ndarray:
    """(rows, trees) matrix of the leaf value each row of x reaches in each
    tree of ``table``, equal to ``walk``'s: a row equal to a threshold goes
    left, and a NaN, which sorts after every threshold, goes right."""
    features, leaf_value, offsets = table
    m = None
    for f, thr, prefix in features:
        masks = prefix[np.searchsorted(thr, x[:, f], side="left")]
        m = masks if m is None else np.bitwise_and(m, masks, out=m)
    if m is None:  # no tree splits: every row reaches leaf 0
        m = np.ones((x.shape[0], offsets.shape[0]), dtype=np.uint8)
    # bitwise_count(m ^ (m - 1)) is one more than the lowest set bit of m.
    below = m - 1
    np.bitwise_xor(below, m, out=below)
    return leaf_value.take(np.bitwise_count(below) + offsets)


def leaf_values(trees, x: np.ndarray) -> np.ndarray:
    """(rows, trees) matrix of the leaf value each row of x reaches in each tree."""
    return walk(node_table(trees), x)


class RegressionTree:
    """CART regression tree stored as flat node arrays."""

    def __init__(self, max_depth: int, min_leaf: int):
        self.max_depth = int(max_depth)
        self.min_leaf = int(min_leaf)
        self.feature: np.ndarray | None = None  # -1 marks a leaf
        self.threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.value: np.ndarray | None = None

    def fit(self, x: np.ndarray, y: np.ndarray, order: np.ndarray | None = None,
            out: np.ndarray | None = None) -> "RegressionTree":
        """Grow the tree on (x, y); ``order`` is ``presort(x)``, computed here
        when not given.  Each leaf writes its value into its rows of ``out``,
        when given, which so ends up equal to ``predict(x)``."""
        if order is None:
            order = presort(x)
        # Feature-major copy of x: a node's sorted values are one flat gather.
        xt = np.ascontiguousarray(x.T).reshape(-1)
        shift = (np.arange(x.shape[1]) * x.shape[0])[:, None]
        row_left = np.empty(x.shape[0], dtype=bool)  # by row of x, at the split
        feature, threshold, left, right, value = [], [], [], [], []

        def new_node():
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            return len(feature) - 1

        # Depth-first build; explicit stack keeps node ids deterministic.
        # ``rows`` stays in ascending index order; row f of ``orders`` holds
        # the same rows sorted stably by feature f.
        stack = [(new_node(), np.arange(x.shape[0]), order, 0)]
        while stack:
            node, rows, orders, depth = stack.pop()
            n = rows.shape[0]
            ysum = y[rows].sum()
            value[node] = float(ysum / n)
            best = None
            if depth < self.max_depth and n >= 2 * self.min_leaf:
                best = best_split(xt[orders + shift], y[orders], self.min_leaf)
            if best is None or best[0] - float(ysum) ** 2 / n <= 0.0:
                if out is not None:  # a leaf, possibly for want of an SSE reduction
                    out[rows] = value[node]
                continue
            _, f, thr = best
            go_left = x[rows, f] <= thr
            feature[node] = f
            threshold[node] = thr
            left_id, right_id = new_node(), new_node()
            left[node], right[node] = left_id, right_id
            # Stable partition of every feature's order; children at the
            # depth limit never split, so they get no orders.
            left_orders = right_orders = None
            if depth + 1 < self.max_depth:
                row_left[rows] = go_left
                to_left = row_left[orders]
                left_orders = orders[to_left].reshape(orders.shape[0], -1)
                right_orders = orders[~to_left].reshape(orders.shape[0], -1)
            stack.append((right_id, rows[~go_left], right_orders, depth + 1))
            stack.append((left_id, rows[go_left], left_orders, depth + 1))

        self.feature = np.asarray(feature, dtype=np.int64)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int64)
        self.right = np.asarray(right, dtype=np.int64)
        self.value = np.asarray(value, dtype=np.float64)
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        return leaf_values([self], x)[:, 0]

    @classmethod
    def from_arrays(cls, arrays: dict, max_depth: int, min_leaf: int) -> "RegressionTree":
        tree = cls(max_depth, min_leaf)
        tree.feature = np.asarray(arrays["feature"], dtype=np.int64)
        tree.threshold = np.asarray(arrays["threshold"], dtype=np.float64)
        tree.left = np.asarray(arrays["left"], dtype=np.int64)
        tree.right = np.asarray(arrays["right"], dtype=np.int64)
        tree.value = np.asarray(arrays["value"], dtype=np.float64)
        # The walk reads only ``right``, so an internal node's children must
        # be adjacent, and later in the arrays so that every walk ends.
        inner = np.flatnonzero(tree.feature >= 0)
        left, right = tree.left[inner], tree.right[inner]
        if not (np.all(right == left + 1) and np.all(left > inner) and np.all(right < tree.feature.shape[0])):
            raise ValueError("each internal node needs children left > node and right == left + 1, in range")
        # Sorted-threshold tables (``bitmask_table``) cannot place a NaN.
        if np.isnan(tree.threshold[inner]).any():
            raise ValueError("internal node thresholds must not be NaN")
        return tree
