"""Canaries for the numpy behaviour that the exact fast paths rely on.

Each fast path below matches its reference bit for bit only because numpy
evaluates two expressions with the same floating-point operations in the
same order.  Nothing in numpy's API promises that, so each assumption gets
one test named for it: after a numpy upgrade, a failure here says which
assumption broke, where a hash pin would only say that some bits moved.
"""

import numpy as np
import pytest

from kbb.regression import RegressorConfig, fit
from kbb.trees import bitmask_table, bitmask_values, node_table, walk


def chains(k, d, seed):
    """k random ARCH-like states of dimension d, and a symmetric scale matrix."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d))
    return rng.normal(size=(k, d)), g.T @ g


def one_chain_quad(x, g):
    return np.array([np.einsum("i,ij,j->", xc, g, xc) for xc in x])


@pytest.mark.parametrize("d", [1, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("k", [2, 3, 9])
def test_batched_einsum_equals_one_chain_einsum(d, k):
    # envs._sample_arch takes the quadratic forms of k >= 2 lockstep chains
    # with one batched einsum, and a lone chain with the one-chain einsum.
    for seed in range(20):
        x, g = chains(k, d, seed)
        assert np.array_equal(np.einsum("ki,ij,kj->k", x, g, x), one_chain_quad(x, g))


@pytest.mark.parametrize("k", [3, 5, 9])
def test_batched_einsum_differs_at_d2(k):
    # At d = 2 the batched einsum groups the 2x2 sum unlike the one-chain
    # einsum once 3 or more chains are live, which is why envs._sample_arch
    # takes each form alone at d = 2.  If this starts to fail, the batched
    # form has become exact at d = 2 too, and that special case can go.
    differs = 0
    for seed in range(20):
        x, g = chains(k, 2, seed)
        differs += not np.array_equal(np.einsum("ki,ij,kj->k", x, g, x), one_chain_quad(x, g))
    assert differs > 0


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("k", [2, 3, 9, 64])
def test_stacked_matmul_equals_per_chain_gemv(d, k):
    # A lockstep step is (x[:, None, :] @ L')[:, 0]; a lone chain's is x @ L'
    # on a 1-d vector.  The noise is shaped the same way, (b, 1, d) @ F,
    # standing for b one-row draws.  L' is a transposed view, as in envs.
    rng = np.random.default_rng(d * 100 + k)
    x, a_t = rng.normal(size=(k, d)), rng.normal(size=(d, d)).T
    assert np.array_equal((x[:, None, :] @ a_t)[:, 0], np.array([xc @ a_t for xc in x]))
    assert np.array_equal((x[:, None, :] @ a_t)[:, 0], np.vstack([xc[None] @ a_t for xc in x]))


@pytest.mark.parametrize("n_trees", [1, 7, 200])
def test_quickscorer_block_sums_equal_walk_sums(n_trees):
    # BoostedTreesFn sums each block's (rows, trees) leaf matrix along its
    # rows; the sums must not depend on the block's row count or on which
    # scorer filled the matrix.
    rng = np.random.default_rng(n_trees)
    x = rng.normal(size=(600, 3))
    f = fit((x, np.sin(2 * x[:, 0]) + x[:, 1] * x[:, 2]), RegressorConfig(n_trees=n_trees, max_depth=4, min_leaf=5))
    grid = rng.normal(size=(1000, 3))
    want = walk(node_table(f.trees), grid).sum(axis=1)
    table = bitmask_table(f.trees)
    for block in (1, 7, 163, 1000):
        got = np.concatenate([bitmask_values(table, grid[s : s + block]).sum(axis=1)
                              for s in range(0, grid.shape[0], block)])
        assert np.array_equal(got, want)
