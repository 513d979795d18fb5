"""Regression backends: tabular means, boosted trees, backup targets."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbb.envs import make_circular_walk, sample_transitions
from kbb.mrp import solve_exact
from kbb.regression import RegressorConfig, backup_targets, fit
from kbb.trees import BLOCK_CELLS, RegressionTree, best_split, bitmask_table, bitmask_values, leaf_values
from kbb.values import TableValueFn

# A fitted tree's node arrays, in the order the hash pin reads them.
LAYOUT = ("feature", "threshold", "left", "right", "value")


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
        """(score, feature, threshold) over the columns of x; on equal scores
        the first feature found keeps the split."""
        best = None
        for f in range(x.shape[1]):
            order = np.argsort(x[:, f], kind="stable")
            sv, sy = x[order, f], y[order]
            for i in range(len(sv) - 1):
                if sv[i] >= sv[i + 1]:
                    continue
                nl, nr = i + 1, len(sv) - i - 1
                if nl < min_leaf or nr < min_leaf:
                    continue
                score = sy[: i + 1].sum() ** 2 / nl + sy[i + 1 :].sum() ** 2 / nr
                if best is None or score > best[0] + 1e-12:
                    best = (score, f, 0.5 * (sv[i] + sv[i + 1]))
        return best

    def sorted_node(self, x, y):
        order = np.argsort(x.T, axis=1, kind="stable")
        return np.take_along_axis(x.T, order, axis=1), y[order]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1, 1, size=(80, 1))
        y = (x[:, 0] > 0).astype(float) + 0.1 * rng.normal(size=80)
        got = best_split(*self.sorted_node(x, y), min_leaf=5)
        want = self.brute_force(x, y, min_leaf=5)
        assert got is not None
        assert got[0] == pytest.approx(want[0])
        assert got[1] == want[1] == 0
        assert got[2] == pytest.approx(want[2])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_oracle_across_features(self, seed):
        rng = np.random.default_rng(seed)
        x = np.round(rng.uniform(-1, 1, size=(80, 3)), 1)
        y = (x[:, seed % 3] > 0).astype(float) + 0.1 * rng.normal(size=80)
        got = best_split(*self.sorted_node(x, y), min_leaf=5)
        want = self.brute_force(x, y, min_leaf=5)
        assert got[0] == pytest.approx(want[0])
        assert got[1] == want[1]
        assert got[2] == pytest.approx(want[2])

    def test_no_split_on_constant_feature(self):
        assert best_split(np.ones((1, 20)), np.arange(20.0)[None], 1) is None
        assert best_split(np.ones((2, 20)), np.tile(np.arange(20.0), (2, 1)), 1) is None

    def test_min_leaf_respected(self):
        x = np.arange(10.0)
        y = np.zeros(10)
        y[-1] = 100.0
        got = best_split(x[None], y[None], min_leaf=3)
        # threshold must leave at least 3 points on each side
        assert 2.0 < got[2] < 7.0

    def test_too_few_rows_for_two_leaves(self):
        assert best_split(np.arange(5.0)[None], np.arange(5.0)[None], min_leaf=3) is None
        assert best_split(np.arange(6.0)[None], np.arange(6.0)[None], min_leaf=3)[2] == 2.5


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


class TestWalk:
    """Blocked ensemble evaluation and the ``right``-only walk against the reference."""

    def ensemble(self, n_trees=7, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(400, 3))
        y = np.sin(2 * x[:, 0]) + x[:, 1] * x[:, 2]
        return fit((x, y), RegressorConfig(n_trees=n_trees, max_depth=4, min_leaf=3, subsample=0.7), seed=seed)

    def block_sums(self, f, x, block):
        sums = [leaf_values(f.trees, x[i : i + block]).sum(axis=1) for i in range(0, x.shape[0], block)]
        return f.base_value + f.learning_rate * np.concatenate(sums)

    @pytest.mark.parametrize("cells,n_rows", [(70, 5), (70, 23), (70, 90), (BLOCK_CELLS, 300)])
    def test_blocks_match_the_reference(self, monkeypatch, cells, n_rows):
        # 70 cells over 7 trees is 10 rows a block: within one block, ending
        # mid-block, and several whole blocks.
        monkeypatch.setattr("kbb.regression.BLOCK_CELLS", cells)
        f = self.ensemble()
        x = np.random.default_rng(1).normal(size=(n_rows, 3))
        ref = reference_leaf_values(f.trees, x)
        assert np.array_equal(leaf_values(f.trees, x), ref)
        assert np.array_equal(f(x), self.block_sums(f, x, max(1, cells // 7)))

    def test_more_trees_than_block_cells(self, monkeypatch):
        monkeypatch.setattr("kbb.regression.BLOCK_CELLS", 4)
        f = self.ensemble(n_trees=6)
        x = np.random.default_rng(2).normal(size=(9, 3))
        assert np.array_equal(leaf_values(f.trees, x), reference_leaf_values(f.trees, x))
        assert np.array_equal(f(x), self.block_sums(f, x, 1))

    def test_fortran_and_column_sliced_rows(self):
        f = self.ensemble()
        wide = np.random.default_rng(3).normal(size=(50, 7))
        for x in (np.asfortranarray(wide[:, :3]), wide[:, ::3], wide[:, 2:5]):
            assert not x.flags.c_contiguous
            ref = reference_leaf_values(f.trees, x)
            assert np.array_equal(leaf_values(f.trees, x), ref)
            assert np.array_equal(f(x), f(np.ascontiguousarray(x)))

    def test_nan_goes_right_at_every_internal_node(self):
        f = self.ensemble()
        x = np.full((2, 3), np.nan)
        x[1, 1:] = 0.0  # NaN only in feature 0
        got = leaf_values(f.trees, x)
        assert np.array_equal(got, reference_leaf_values(f.trees, x))
        for j, t in enumerate(f.trees):
            node = 0
            while t.feature[node] >= 0:
                node = t.right[node]
            assert got[0, j] == t.value[node]


class TestNodeLayout:
    def arrays(self, **changes):
        arrays = dict(feature=[0, 1, -1, -1, -1], threshold=[0.0, 1.0, 0.0, 0.0, 0.0],
                      left=[1, 3, -1, -1, -1], right=[2, 4, -1, -1, -1], value=[0.0, 1.0, 2.0, 3.0, 4.0])
        arrays.update(changes)
        return arrays

    def test_adjacent_children_accepted(self):
        tree = RegressionTree.from_arrays(self.arrays(), max_depth=2, min_leaf=1)
        x = np.array([[0.0, 0.0], [0.0, 2.0], [1.0, 0.0]])
        assert tree.predict(x).tolist() == [3.0, 4.0, 2.0]
        assert tree.predict(x).tolist() == reference_leaf_values([tree], x)[:, 0].tolist()

    @pytest.mark.parametrize("changes", [
        dict(left=[1, 3, -1, -1, -1], right=[3, 4, -1, -1, -1]),  # right != left + 1
        dict(left=[2, 3, -1, -1, -1], right=[1, 4, -1, -1, -1]),  # children swapped
        dict(left=[1, 4, -1, -1, -1], right=[2, 5, -1, -1, -1]),  # right out of range
        dict(left=[-1, 3, -1, -1, -1], right=[0, 4, -1, -1, -1]),  # left out of range
        dict(left=[1, 0, -1, -1, -1], right=[2, 1, -1, -1, -1]),  # a child before its parent
    ])
    def test_misread_layouts_rejected(self, changes):
        with pytest.raises(ValueError, match="internal node"):
            RegressionTree.from_arrays(self.arrays(**changes), max_depth=2, min_leaf=1)

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            RegressionTree.from_arrays(self.arrays(threshold=[0.0, np.nan, 0.0, 0.0, 0.0]), max_depth=2, min_leaf=1)
        # a leaf's threshold is never read
        RegressionTree.from_arrays(self.arrays(threshold=[0.0, 1.0, np.nan, 0.0, 0.0]), max_depth=2, min_leaf=1)

    def test_fitted_trees_have_the_layout(self):
        x = np.random.default_rng(4).normal(size=(300, 2))
        tree = RegressionTree(5, 3).fit(x, x[:, 0] * x[:, 1])
        inner = tree.feature >= 0
        assert inner.sum() > 3
        assert np.array_equal(tree.right[inner], tree.left[inner] + 1)
        RegressionTree.from_arrays({key: getattr(tree, key) for key in LAYOUT}, 5, 3)


def scored_rows(trees, x, rng):
    """Rows of x, rows on every split threshold, and rows with NaN and +-inf entries."""
    inner = [(f, thr) for t in trees for f, thr in zip(t.feature, t.threshold) if f >= 0]
    on = x[rng.integers(0, x.shape[0], size=len(inner))].copy()
    for row, (f, thr) in zip(on, inner):
        row[f] = thr
    odd = x[rng.integers(0, x.shape[0], size=3 * x.shape[1])].copy()
    for i, row in enumerate(odd):
        row[i % x.shape[1]] = (np.nan, np.inf, -np.inf)[i // x.shape[1]]
    return np.vstack([x, on, odd, np.full((1, x.shape[1]), np.nan)])


class TestBitmaskScoring:
    """QuickScorer tables against the walk and the per-row reference, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 7), st.integers(1, 8), st.sampled_from([0.6, 1.0]), st.integers(1, 6),
           st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
    @example(3, 1, 1.0, 3, 2, False, 0)  # uint8 masks
    @example(4, 1, 0.6, 3, 2, True, 1)  # uint16
    @example(5, 1, 1.0, 3, 3, False, 2)  # uint32
    @example(6, 1, 0.6, 3, 2, False, 3)  # uint64
    @example(7, 1, 1.0, 3, 2, False, 4)  # past 64 leaves: the walk
    def test_matches_walk_and_reference(self, max_depth, min_leaf, subsample, n_trees, d, rounded, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(300, d))
        if rounded:  # ties in the features and on the thresholds
            x = np.round(x, 1)
        # a near-linear target fills deep trees: depth 7 reaches 95 leaves
        y = x[:, 0] + 0.5 * np.sin(3 * x[:, -1]) + 0.1 * rng.normal(size=300)
        cfg = RegressorConfig(n_trees=n_trees, max_depth=max_depth, min_leaf=min_leaf, subsample=subsample)
        f = fit((x, y), cfg, seed=seed)
        grid = scored_rows(f.trees, x, rng)
        ref = reference_leaf_values(f.trees, grid)
        assert np.array_equal(leaf_values(f.trees, grid), ref)
        assert np.array_equal(f(grid), f.base_value + f.learning_rate * ref.sum(axis=1))
        widest = max(int((t.feature < 0).sum()) for t in f.trees)
        table = bitmask_table(f.trees)
        if widest > 64:
            assert table is None
            return
        assert np.array_equal(bitmask_values(table, grid), ref)
        want = next(dt for bits, dt in ((8, np.uint8), (16, np.uint16), (32, np.uint32), (64, np.uint64))
                    if widest <= bits)
        assert all(prefix.dtype == want for _, _, prefix in table[0])

    @pytest.mark.parametrize("max_depth,dtype", [(3, np.uint8), (4, np.uint16), (5, np.uint32),
                                                 (6, np.uint64), (7, None)])
    def test_mask_width_follows_the_leaf_count(self, max_depth, dtype):
        # a linear target splits near the median, so the trees fill up
        x = np.random.default_rng(5).normal(size=(600, 2))
        f = fit((x, x[:, 0] + 0.1 * x[:, 1]), RegressorConfig(n_trees=2, max_depth=max_depth, min_leaf=1))
        assert 2 ** (max_depth - 1) < max((t.feature < 0).sum() for t in f.trees) <= 2**max_depth
        table = bitmask_table(f.trees)
        assert (table is None) if dtype is None else table[0][0][2].dtype == dtype
        assert np.array_equal(f(x), f.base_value + f.learning_rate * reference_leaf_values(f.trees, x).sum(axis=1))

    def test_unsplit_trees_reach_leaf_zero(self):
        x = np.arange(6.0).reshape(3, 2)
        trees = [RegressionTree(0, 1).fit(x, np.full(3, v)) for v in (1.5, -2.0)]
        assert np.array_equal(bitmask_values(bitmask_table(trees), x), [[1.5, -2.0]] * 3)


class TestFittedValues:
    """The values ``fit`` writes into ``out`` are the walk's, bit for bit."""

    def data(self, seed=0, n=500):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 3))
        return x, np.sin(2 * x[:, 0]) + x[:, 1] * x[:, 2] + 0.1 * rng.normal(size=n)

    @pytest.mark.parametrize("max_depth", [0, 1, 4, 6])
    @pytest.mark.parametrize("rounded", [False, True])
    def test_out_equals_predict(self, max_depth, rounded):
        x, y = self.data(seed=max_depth)
        if rounded:
            x = np.round(x, 1)
        out = np.full(x.shape[0], np.nan)
        tree = RegressionTree(max_depth, 5).fit(x, y, out=out)
        assert np.array_equal(out, tree.predict(x))

    def test_out_equals_predict_on_a_subsample(self):
        x, y = self.data(seed=7)
        x = np.round(x, 1)
        rows = np.sort(np.random.default_rng(1).permutation(x.shape[0])[:350])
        out = np.full(rows.shape[0], np.nan)
        tree = RegressionTree(4, 5).fit(x[rows], y[rows], out=out)
        assert np.array_equal(out, tree.predict(x[rows]))

    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    def test_train_mse_path_is_the_walked_one(self, subsample):
        x, y = self.data(seed=9)
        x = np.round(x, 1)
        f = fit((x, y), RegressorConfig(n_trees=15, max_depth=4, min_leaf=5, subsample=subsample), seed=2)
        pred = np.full(y.shape[0], f.base_value)
        path = [float(np.mean((y - pred) ** 2))]
        for tree in f.trees:
            pred += f.learning_rate * tree.predict(x)
            path.append(float(np.mean((y - pred) ** 2)))
        assert np.array_equal(f.train_mse_path, path)


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
        orders = [np.argsort(x[rows, f], kind="stable") for f in range(x.shape[1])]
        sv = np.array([x[rows, f][order] for f, order in enumerate(orders)])
        best = split(sv, np.array([ysub[order] for order in orders]), min_leaf)
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
    for key in LAYOUT:
        assert np.array_equal(getattr(tree, key), reference[key]), key


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
            assert sv.shape == sy.shape == (x.shape[1], sv.shape[1])
            for f in range(x.shape[1]):
                assert np.array_equal(sv[f], rv[f]) and np.array_equal(sy[f], ry[f])

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
            for key in LAYOUT:
                h.update(getattr(tree, key).tobytes())
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

    @pytest.mark.parametrize("x", [
        np.repeat([[-np.inf], [np.inf]], 5, axis=0),  # would split at a NaN midpoint
        np.array([[0.0, 1.0], [0.0, np.nan]] * 5),
        np.array([[0.0, 1.0], [np.inf, 0.0]] * 5),
    ], ids=["both-infinities", "nan", "inf"])
    def test_non_finite_states_rejected(self, x):
        with pytest.raises(ValueError, match="states must be finite"):
            fit((x, np.tile([0.0, 1.0], 5)), RegressorConfig(n_trees=2, max_depth=2, min_leaf=1))


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
