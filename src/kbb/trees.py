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

``leaf_values`` is the one traversal, under both ``RegressionTree.predict``
and the evaluation of a boosted ensemble.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RegressionTree", "best_split", "leaf_values", "presort"]


def presort(x: np.ndarray) -> np.ndarray:
    """(features, rows) matrix whose row f is the stable argsort of x[:, f]."""
    return np.argsort(x.T, axis=1, kind="stable")


def best_split(sv: np.ndarray, sy: np.ndarray, min_leaf: int):
    """Best SSE-reducing split of one feature column, given sorted.

    ``sv`` holds the feature values in stable ascending order and ``sy`` the
    targets in the same order.  Returns (score, threshold) where score =
    sum_L^2/n_L + sum_R^2/n_R is to be maximized (total sum of squares is
    constant), or None when no valid split exists.  The first maximizer in
    sorted order is returned, i.e. the smallest threshold.
    """
    n = sv.shape[0]
    if n < 2 * min_leaf:
        return None
    csum = np.cumsum(sy)
    total = csum[-1]
    i = np.arange(n - 1)
    n_left = i + 1
    n_right = n - n_left
    valid = (sv[:-1] < sv[1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    left_sum = csum[:-1]
    score = np.where(valid, left_sum**2 / n_left + (total - left_sum) ** 2 / n_right, -np.inf)
    j = int(np.argmax(score))
    return float(score[j]), float(0.5 * (sv[j] + sv[j + 1]))


def leaf_values(trees, x: np.ndarray) -> np.ndarray:
    """(rows, trees) matrix of the leaf value each row of x reaches in each tree.

    All trees are walked at once on one stacked node table, built per call, in
    which leaves loop to themselves behind +inf thresholds.  The walk takes as
    many steps as the deepest tree has levels of internal nodes, counted from
    the node arrays.
    """
    offsets = np.cumsum([0] + [t.feature.shape[0] for t in trees[:-1]])
    feature = np.concatenate([t.feature for t in trees])
    is_leaf = feature < 0
    node_ids = np.arange(feature.shape[0])
    feature = np.where(is_leaf, 0, feature)
    threshold = np.where(is_leaf, np.inf, np.concatenate([t.threshold for t in trees]))
    left = np.where(is_leaf, node_ids, np.concatenate([t.left + off for t, off in zip(trees, offsets)]))
    right = np.where(is_leaf, node_ids, np.concatenate([t.right + off for t, off in zip(trees, offsets)]))
    depth = 0
    frontier = offsets[~is_leaf[offsets]]
    while frontier.size:
        depth += 1
        children = np.concatenate([left[frontier], right[frontier]])
        frontier = children[~is_leaf[children]]
    rows = np.arange(x.shape[0])[:, None]
    idx = np.broadcast_to(offsets, (x.shape[0], len(trees)))
    for _ in range(depth):
        idx = np.where(x[rows, feature[idx]] <= threshold[idx], left[idx], right[idx])
    return np.concatenate([t.value for t in trees])[idx]


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

    def fit(self, x: np.ndarray, y: np.ndarray, order: np.ndarray | None = None) -> "RegressionTree":
        """Grow the tree on (x, y); ``order`` is ``presort(x)``, computed here
        when not given."""
        if order is None:
            order = presort(x)
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
            ysub = y[rows]
            value[node] = float(ysub.mean())
            if depth >= self.max_depth or rows.shape[0] < 2 * self.min_leaf:
                continue
            best = None
            for f in range(x.shape[1]):
                cand = best_split(x[orders[f], f], y[orders[f]], self.min_leaf)
                if cand is None:
                    continue
                if best is None or cand[0] > best[0]:
                    best = (cand[0], f, cand[1])
            if best is None:
                continue
            score, f, thr = best
            n = rows.shape[0]
            if score - float(ysub.sum()) ** 2 / n <= 0.0:
                continue  # no SSE reduction: keep the leaf
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

    def to_arrays(self) -> dict:
        return {
            "feature": self.feature,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
            "value": self.value,
        }

    @classmethod
    def from_arrays(cls, arrays: dict, max_depth: int, min_leaf: int) -> "RegressionTree":
        tree = cls(max_depth, min_leaf)
        tree.feature = np.asarray(arrays["feature"], dtype=np.int64)
        tree.threshold = np.asarray(arrays["threshold"], dtype=np.float64)
        tree.left = np.asarray(arrays["left"], dtype=np.int64)
        tree.right = np.asarray(arrays["right"], dtype=np.int64)
        tree.value = np.asarray(arrays["value"], dtype=np.float64)
        return tree
