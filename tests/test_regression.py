"""Regression backends: tabular means, boosted trees, backup targets."""

import hashlib

import numpy as np
import pytest

from kbb.envs import make_circular_walk, sample_transitions
from kbb.mrp import solve_exact
from kbb.regression import RegressorConfig, backup_targets, fit
from kbb.trees import RegressionTree, best_split, leaf_values
from kbb.values import TableValueFn


class TestTabularMean:
    def test_sample_mean(self):
        f = fit((np.array([0, 0]), np.array([1.0, 3.0])), RegressorConfig(kind="tabular_mean"))
        assert f(np.array([0]))[0] == pytest.approx(2.0)

    def test_unvisited_states_are_zero(self):
        f = fit((np.array([0, 2]), np.array([1.0, 5.0])), RegressorConfig(kind="tabular_mean"))
        out = f(np.array([0, 1, 2, 7]))
        assert np.allclose(out, [1.0, 0.0, 5.0, 0.0])

    def test_global_least_squares_optimum(self):
        # per-state mean minimizes sum (y - f(s))^2 over all state functions
        rng = np.random.default_rng(0)
        states = rng.integers(0, 5, size=200)
        y = rng.normal(size=200)
        f = fit((states, y), RegressorConfig(kind="tabular_mean"))
        fitted_sse = np.sum((y - f(states)) ** 2)
        for s in range(5):
            mask = states == s
            assert f(np.array([s]))[0] == pytest.approx(y[mask].mean())
        # perturbing any entry strictly increases SSE
        vals = f(np.arange(5))
        for s in range(5):
            perturbed = vals.copy()
            perturbed[s] += 0.01
            g = TableValueFn(perturbed)
            assert np.sum((y - g(states)) ** 2) > fitted_sse

    def test_rejects_float_states(self):
        with pytest.raises(ValueError):
            fit((np.zeros((3, 1)), np.ones(3)), RegressorConfig(kind="tabular_mean"))


class TestBestSplitOracle:
    def brute_force(self, x, y, min_leaf):
        best = None
        order = np.argsort(x, kind="stable")
        sv, sy = x[order], y[order]
        for i in range(len(x) - 1):
            if sv[i] >= sv[i + 1]:
                continue
            nl, nr = i + 1, len(x) - i - 1
            if nl < min_leaf or nr < min_leaf:
                continue
            score = sy[: i + 1].sum() ** 2 / nl + sy[i + 1 :].sum() ** 2 / nr
            if best is None or score > best[0] + 1e-12:
                best = (score, 0.5 * (sv[i] + sv[i + 1]))
        return best

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=80)
        y = (x > 0).astype(float) + 0.1 * rng.normal(size=80)
        order = np.argsort(x, kind="stable")
        got = best_split(x[order], y[order], min_leaf=5)
        want = self.brute_force(x, y, min_leaf=5)
        assert got is not None
        assert got[0] == pytest.approx(want[0])
        assert got[1] == pytest.approx(want[1])

    def test_no_split_on_constant_feature(self):
        assert best_split(np.ones(20), np.arange(20.0), 1) is None

    def test_min_leaf_respected(self):
        x = np.arange(10.0)
        y = np.zeros(10)
        y[-1] = 100.0
        got = best_split(x, y, min_leaf=3)
        # threshold must leave at least 3 points on each side
        assert 2.0 < got[1] < 7.0


def reference_leaf_values(trees, x):
    """Per-row, per-tree walk from the root: rows equal to a threshold go left."""
    out = np.empty((x.shape[0], len(trees)))
    for r in range(x.shape[0]):
        for j, t in enumerate(trees):
            node = 0
            while t.feature[node] >= 0:
                node = t.left[node] if x[r, t.feature[node]] <= t.threshold[node] else t.right[node]
            out[r, j] = t.value[node]
    return out


class TestLeafValues:
    def stump(self):
        arrays = dict(feature=[1, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                      right=[2, -1, -1], value=[0.0, -1.0, 1.0])
        return RegressionTree.from_arrays(arrays, max_depth=1, min_leaf=1)

    def test_matches_reference_walk(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(300, 3))
        y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2]
        trees = [RegressionTree(depth, 5).fit(x[i::3], y[i::3]) for i, depth in enumerate((0, 2, 4))]
        assert trees[0].feature.tolist() == [-1]  # depth 0: a single leaf
        # plus one row on each split threshold of the deepest tree
        inner = np.flatnonzero(trees[2].feature >= 0)
        on = rng.normal(size=(inner.size, 3))
        on[np.arange(inner.size), trees[2].feature[inner]] = trees[2].threshold[inner]
        grid = np.vstack([rng.normal(size=(80, 3)), on])
        assert np.array_equal(leaf_values(trees, grid), reference_leaf_values(trees, grid))
        for j, t in enumerate(trees):
            assert np.array_equal(t.predict(grid), reference_leaf_values(trees, grid)[:, j])

    def test_rows_on_a_threshold_go_left(self):
        x = np.array([[9.0, 0.5], [9.0, np.nextafter(0.5, 1.0)], [9.0, 0.25]])
        trees = [self.stump(), RegressionTree(0, 1).fit(x, np.full(3, 2.0))]
        expected = [[-1.0, 2.0], [1.0, 2.0], [-1.0, 2.0]]
        assert leaf_values(trees, x).tolist() == expected
        assert reference_leaf_values(trees, x).tolist() == expected

    def test_empty_batch(self):
        x = np.empty((0, 2))
        assert leaf_values([self.stump(), self.stump()], x).shape == (0, 2)
        assert self.stump().predict(x).shape == (0,)
        pairs = (np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, -1.0]))
        f = fit(pairs, RegressorConfig(n_trees=3, min_leaf=1))
        assert f(x).shape == (0,)


def reference_tree(x, y, max_depth, min_leaf, split=best_split):
    """Node arrays of the builder without presorting: every node stably
    argsorts its rows' values of every feature before the split search."""
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        for arr, init in ((feature, -1), (threshold, 0.0), (left, -1), (right, -1), (value, 0.0)):
            arr.append(init)
        return len(feature) - 1

    stack = [(new_node(), np.arange(x.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        ysub = y[rows]
        value[node] = float(ysub.mean())
        if depth >= max_depth or rows.shape[0] < 2 * min_leaf:
            continue
        best = None
        for f in range(x.shape[1]):
            order = np.argsort(x[rows, f], kind="stable")
            cand = split(x[rows, f][order], ysub[order], min_leaf)
            if cand is not None and (best is None or cand[0] > best[0]):
                best = (cand[0], f, cand[1])
        if best is None or best[0] - float(ysub.sum()) ** 2 / rows.shape[0] <= 0.0:
            continue
        _, f, thr = best
        go_left = x[rows, f] <= thr
        feature[node], threshold[node] = f, thr
        left[node], right[node] = new_node(), new_node()
        stack.append((right[node], rows[~go_left], depth + 1))
        stack.append((left[node], rows[go_left], depth + 1))
    return dict(feature=feature, threshold=threshold, left=left, right=right, value=value)


def assert_same_tree(tree, reference):
    for key, arr in tree.to_arrays().items():
        assert np.array_equal(arr, reference[key]), key


class TestPresortedTrees:
    """The presorted build against the per-node-argsort reference, array by array."""

    def data(self, n=600, d=3, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d))
        return x, np.sin(2 * x[:, 0]) + x[:, 1] * x[:, -1] + 0.1 * rng.normal(size=n)

    @pytest.mark.parametrize("max_depth,min_leaf", [(0, 5), (1, 1), (4, 5), (6, 20)])
    def test_continuous_features(self, max_depth, min_leaf):
        x, y = self.data()
        tree = RegressionTree(max_depth, min_leaf).fit(x, y)
        assert_same_tree(tree, reference_tree(x, y, max_depth, min_leaf))
        if max_depth == 0:
            assert tree.feature.tolist() == [-1]

    def test_rounded_features_with_ties(self):
        x, y = self.data(seed=1)
        x = np.round(x, 1)
        assert np.unique(x[:, 0]).size < 100
        assert_same_tree(RegressionTree(5, 3).fit(x, y), reference_tree(x, y, 5, 3))

    def test_split_search_sees_the_reference_sequences(self, monkeypatch):
        # Same sorted values and same target order at every node and feature,
        # so every cumsum, score and tie-break is the reference's, bit for bit.
        x, y = self.data(seed=1)
        x = np.round(x, 1)
        seen = []

        def recording(sv, sy, min_leaf):
            seen.append((sv.copy(), sy.copy()))
            return best_split(sv, sy, min_leaf)

        monkeypatch.setattr("kbb.trees.best_split", recording)
        RegressionTree(5, 3).fit(x, y)
        got, seen[:] = list(seen), []
        reference_tree(x, y, 5, 3, split=recording)
        assert len(got) == len(seen) > 0
        for (sv, sy), (rv, ry) in zip(got, seen):
            assert np.array_equal(sv, rv) and np.array_equal(sy, ry)

    def test_duplicated_columns_split_on_feature_zero(self):
        x, y = self.data(seed=2)
        x = np.column_stack([x[:, 0], x[:, 0]])
        tree = RegressionTree(4, 2).fit(x, y)
        assert_same_tree(tree, reference_tree(x, y, 4, 2))
        assert set(tree.feature[tree.feature >= 0].tolist()) == {0}

    def test_integer_states(self):
        states = np.random.default_rng(3).integers(0, 40, size=500)
        y = np.cos(states / 5.0)
        x = states.astype(np.float64).reshape(-1, 1)
        assert_same_tree(RegressionTree(5, 5).fit(x, y), reference_tree(x, y, 5, 5))

    def test_boosted_subsample_tree_by_tree(self):
        x, y = self.data(seed=5)
        x = np.round(x, 1)
        cfg = RegressorConfig(n_trees=12, max_depth=4, min_leaf=5, subsample=0.7)
        f = fit((x, y), cfg, seed=8)
        rng = np.random.default_rng(8)
        pred = np.full(y.shape[0], f.base_value)
        k = int(round(0.7 * y.shape[0]))
        for tree in f.trees:
            rows = np.sort(rng.permutation(y.shape[0])[:k])
            assert_same_tree(tree, reference_tree(x[rows], (y - pred)[rows], 4, 5))
            pred += cfg.learning_rate * tree.predict(x)

    def test_fit_hash_pin(self):
        # Recorded before split search was presorted (per-node argsort).
        rng = np.random.default_rng(20240601)
        x = np.round(rng.normal(size=(3000, 3)), 2)
        y = np.sin(2 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * rng.normal(size=3000)
        cfg = RegressorConfig(n_trees=50, max_depth=5, learning_rate=0.1, min_leaf=5, subsample=0.7)
        f = fit((x, y), cfg, seed=3)
        h = hashlib.sha256()
        for tree in f.trees:
            for arr in tree.to_arrays().values():
                h.update(arr.tobytes())
        assert h.hexdigest() == "b46e90fc48013ae41595a138ffbfa2fe81fa6b4f228e42eebb1aa0c0fd32fc8e"
        grid = np.random.default_rng(11).normal(size=(5000, 3))
        values = hashlib.sha256(f(grid).tobytes()).hexdigest()
        assert values == "922fc0d818dc83ba70afe6e870c3fbb3d3e53a5fe501e6bbdd973cd160e2c5f5"


class TestBoostedTrees:
    def test_constant_targets_exact(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(100, 2))
        f = fit((x, np.full(100, 4.2)), RegressorConfig(n_trees=10))
        assert np.abs(f(x) - 4.2).max() <= 1e-9

    def test_step_function(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(500, 1))
        y = (x[:, 0] > 0).astype(float)
        cfg = RegressorConfig(n_trees=50, max_depth=1, learning_rate=0.5)
        f = fit((x, y), cfg)
        assert np.mean((f(x) - y) ** 2) <= 1e-3

    def test_training_mse_monotone(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 2))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2 + 0.1 * rng.normal(size=300)
        f = fit((x, y), RegressorConfig(n_trees=40))
        assert np.all(np.diff(f.train_mse_path) <= 1e-12)

    def test_determinism(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(200, 3))
        y = rng.normal(size=200)
        cfg = RegressorConfig(n_trees=20, subsample=0.7)
        f1 = fit((x, y), cfg, seed=9)
        f2 = fit((x, y), cfg, seed=9)
        grid = rng.normal(size=(50, 3))
        assert np.array_equal(f1(grid), f2(grid))

    def test_tie_break_lowest_feature(self):
        # duplicated feature columns: the split must use feature 0
        rng = np.random.default_rng(5)
        col = rng.uniform(size=60)
        x = np.column_stack([col, col])
        y = (col > 0.5).astype(float)
        tree = RegressionTree(max_depth=1, min_leaf=1).fit(x, y)
        assert tree.feature[0] == 0

    def test_works_on_integer_states(self):
        states = np.arange(20, dtype=np.int64)
        y = (states >= 10).astype(float)
        f = fit((states, y), RegressorConfig(n_trees=20, max_depth=1, learning_rate=0.5))
        assert np.mean((f(states) - y) ** 2) < 1e-3

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit((np.zeros((0, 2)), np.zeros(0)), RegressorConfig())

    def test_non_finite_targets_rejected(self):
        with pytest.raises(ValueError):
            fit((np.array([0, 1]), np.array([1.0, np.inf])), RegressorConfig())


class TestTargets:
    def setup_method(self):
        self.env = make_circular_walk(12, 0.9, 0)
        self.data = sample_transitions(self.env, 400, 3)

    def test_backup_of_zero_approximates_reward(self):
        v = TableValueFn(np.zeros(12))
        targets = backup_targets(v, self.data, self.env.gamma)
        f = fit((self.data.states, targets), RegressorConfig(kind="tabular_mean"))
        seen = np.unique(self.data.states)
        assert np.abs(f(seen) - self.env.reward[seen]).max() <= 1e-12

    def test_residual_of_truth_vanishes_statistically(self):
        env = make_circular_walk(20, 0.9, 1)
        data = sample_transitions(env, 100_000, 7)
        v_star = TableValueFn(solve_exact(env))
        targets = v_star(data.states) - (data.rewards + env.gamma * v_star(data.next_states))
        f = fit((data.states, targets), RegressorConfig(kind="tabular_mean"))
        for s in range(20):
            mask = data.states == s
            stderr = targets[mask].std(ddof=1) / np.sqrt(mask.sum())
            assert abs(f(np.array([s]))[0]) <= 5 * max(stderr, 1e-12)
