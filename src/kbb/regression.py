"""Regression backends for residual fitting and backup fitting.

Two regressor kinds sit behind one fit/evaluate contract:

* ``tabular_mean``: the per-state sample average, which is the global
  least-squares minimizer over unrestricted state functions; unvisited
  states evaluate to 0.
* ``boosted_trees``: least-squares gradient boosting of depth-limited CART
  trees, initialized at the global target mean.

Both are deterministic given (data, config, seed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import Dataset
from .trees import BLOCK_CELLS, RegressionTree, node_table, presort, walk
from .values import StateValueFn, TableValueFn, as_states

__all__ = [
    "RegressorConfig",
    "BoostedTreesFn",
    "fit",
    "backup_targets",
]


@dataclass(frozen=True)
class RegressorConfig:
    """Hyperparameters for the regression backend.

    ``kind`` is "tabular_mean" or "boosted_trees"; tree parameters are
    ignored by the tabular backend.
    """

    kind: str = "boosted_trees"
    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.1
    min_leaf: int = 5
    subsample: float = 1.0

    def __post_init__(self):
        if self.kind not in ("tabular_mean", "boosted_trees"):
            raise ValueError(f"unknown regressor kind: {self.kind!r}")
        if self.n_trees < 1 or self.max_depth < 0 or self.min_leaf < 1:
            raise ValueError("n_trees, max_depth, min_leaf must be positive")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")


class BoostedTreesFn(StateValueFn):
    """Additive tree ensemble: base value plus learning_rate-weighted trees.

    Evaluation stacks the trees' nodes once per call and walks all trees at
    once through ``trees.walk``, in blocks of about ``trees.BLOCK_CELLS`` rows
    x trees so the walk stays cache-resident; each block's (rows, trees) leaf
    matrix is summed along its rows.
    """

    def __init__(self, base_value: float, learning_rate: float, trees, train_mse_path):
        self.base_value = float(base_value)
        self.learning_rate = float(learning_rate)
        self.trees = list(trees)
        self.train_mse_path = np.asarray(train_mse_path, dtype=np.float64)

    def __call__(self, states):
        x = _features(as_states(states))
        n = x.shape[0]
        if not self.trees:
            return np.full(n, self.base_value)
        table = node_table(self.trees)
        block = max(1, BLOCK_CELLS // len(self.trees))
        out = np.empty(n)
        for start in range(0, n, block):
            out[start : start + block] = walk(table, x[start : start + block]).sum(axis=1)
        return self.base_value + self.learning_rate * out

    def __repr__(self):
        return f"BoostedTreesFn(n_trees={len(self.trees)})"


def _features(states: np.ndarray) -> np.ndarray:
    """Tree feature matrix: tabular indices become a single float column."""
    if states.ndim == 1:
        return states.astype(np.float64).reshape(-1, 1)
    return states


def _normalize_pairs(pairs):
    """Canonical (states, targets) arrays from a (states, targets) pair."""
    states, targets = pairs
    states = as_states(states)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if states.shape[0] == 0:
        raise ValueError("empty regression input")
    if states.shape[0] != targets.shape[0]:
        raise ValueError("state and target counts differ")
    if not np.isfinite(targets).all():
        raise ValueError("targets must be finite")
    return states, targets


def _fit_tabular_mean(states: np.ndarray, targets: np.ndarray) -> TableValueFn:
    if not np.issubdtype(states.dtype, np.integer):
        raise ValueError("tabular_mean requires integer states")
    if states.min() < 0:
        raise ValueError("state indices must be nonnegative")
    size = int(states.max()) + 1
    counts = np.bincount(states, minlength=size)
    sums = np.bincount(states, weights=targets, minlength=size)
    values = np.divide(sums, counts, out=np.zeros(size), where=counts > 0)
    return TableValueFn(values)


def _fit_boosted(states, targets, config: RegressorConfig, seed: int) -> BoostedTreesFn:
    x = _features(states)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    base = float(targets.mean())
    pred = np.full(n, base)
    residual = targets - pred
    trees = []
    mse_path = [float(np.mean(residual**2))]
    order = presort(x)
    step = np.empty(n)  # the new tree's values on x
    for _ in range(config.n_trees):
        tree = RegressionTree(config.max_depth, config.min_leaf)
        if config.subsample < 1.0:
            k = max(1, int(round(config.subsample * n)))
            rows = np.sort(rng.permutation(n)[:k])
            # The subsample's stable orders, as positions within x[rows]: the
            # global orders filtered to the kept rows, no sort.
            pos = np.full(n, -1)
            pos[rows] = np.arange(k)
            sub = pos[order]
            fitted = np.empty(k)
            tree.fit(x[rows], residual[rows], sub[sub >= 0].reshape(order.shape[0], k), fitted)
            step[rows] = fitted
            rest = pos < 0  # only the rows left out are walked
            step[rest] = tree.predict(x[rest])
        else:
            tree.fit(x, residual, order, step)
        pred += config.learning_rate * step
        residual = targets - pred
        trees.append(tree)
        mse_path.append(float(np.mean(residual**2)))
    return BoostedTreesFn(base, config.learning_rate, trees, mse_path)


def fit(pairs, config: RegressorConfig, seed: int = 0):
    """Fit the configured regressor to (state, target) pairs.

    ``pairs`` is a tuple of (states, targets) arrays.  Returns an evaluable
    fitted function.
    """
    states, targets = _normalize_pairs(pairs)
    if config.kind == "tabular_mean":
        return _fit_tabular_mean(states, targets)
    return _fit_boosted(states, targets, config, seed)


def backup_targets(v, data: Dataset, gamma: float) -> np.ndarray:
    """Targets r + gamma v(x') for backup (fitted value iteration) regression."""
    return data.rewards + gamma * v(data.next_states)
