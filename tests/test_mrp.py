"""Core tabular MRP operations against dense linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbb.mrp import (
    Distribution,
    TabularModel,
    bellman_apply,
    bellman_residual,
    is_reversible,
    mu_norm,
    solve_exact,
    stationary_distribution,
)
from kbb.envs import make_circular_walk, make_random_tabular


def two_state_model(gamma=0.9):
    return TabularModel(trans=[[0.5, 0.5], [0.5, 0.5]], reward=[1.0, 0.0], gamma=gamma)


class TestBellmanApply:
    def test_hand_example(self):
        m = two_state_model()
        v1 = bellman_apply(m, [0.0, 0.0])
        assert np.allclose(v1, [1.0, 0.0])
        v2 = bellman_apply(m, v1)
        assert np.allclose(v2, [1.45, 0.45])

    def test_fixed_point(self):
        m = make_random_tabular(8, 0.9, 0)
        v_star = solve_exact(m)
        assert np.abs(bellman_apply(m, v_star) - v_star).max() <= 1e-12 * np.abs(v_star).max()

    def test_gamma_zero_returns_reward(self):
        # gamma must be in (0,1); gamma -> 0 behavior checked at tiny gamma
        m = TabularModel(trans=[[0.5, 0.5], [0.5, 0.5]], reward=[1.0, 0.0], gamma=1e-15)
        assert np.allclose(bellman_apply(m, [123.0, -7.0]), m.reward)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bellman_apply(two_state_model(), [1.0, 2.0, 3.0])


class TestSolveExact:
    def test_hand_example(self):
        assert np.allclose(solve_exact(two_state_model()), [5.5, 4.5], atol=1e-10)

    def test_constant_reward(self):
        n, c, gamma = 6, 2.5, 0.8
        m = make_circular_walk(n, gamma, 0)
        m = TabularModel(trans=m.trans, reward=np.full(n, c), gamma=gamma)
        assert np.allclose(solve_exact(m), c / (1 - gamma), atol=1e-9)

    def test_against_dense_inverse_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 51))
            m = make_random_tabular(n, float(rng.uniform(0.1, 0.99)), seed)
            oracle = np.linalg.inv(np.eye(n) - m.gamma * m.trans) @ m.reward
            v = solve_exact(m)
            assert np.abs(v - oracle).max() <= 1e-10 * max(1.0, np.abs(oracle).max())

    def test_boundedness(self):
        m = make_random_tabular(30, 0.95, 3)
        v = solve_exact(m)
        assert np.abs(v).max() <= np.abs(m.reward).max() / (1 - m.gamma) + 1e-9

    def test_neumann_series_consistency(self):
        m = make_random_tabular(10, 0.7, 4)
        v = solve_exact(m)
        k = 25
        acc = np.zeros(10)
        pw = m.reward.copy()
        for _ in range(k + 1):
            acc += pw
            pw = m.gamma * m.trans @ pw
        tail = m.gamma ** (k + 1) * np.abs(m.reward).max() / (1 - m.gamma)
        assert np.abs(v - acc).max() <= tail + 1e-12


class TestStationaryDistribution:
    def test_doubly_stochastic_uniform(self):
        m = make_circular_walk(12, 0.9, 0)
        mu = stationary_distribution(m)
        assert np.abs(mu.weights - 1.0 / 12).max() <= 1e-11

    def test_against_left_eigenvector_oracle(self):
        m = TabularModel(trans=[[0.9, 0.1], [0.5, 0.5]], reward=[1.0, 0.0], gamma=0.9)
        mu = stationary_distribution(m)
        w, vl = np.linalg.eig(m.trans.T)
        lead = np.argmin(np.abs(w - 1.0))
        oracle = np.real(vl[:, lead])
        oracle = oracle / oracle.sum()
        assert np.abs(mu.weights - oracle).max() <= 1e-10
        assert np.allclose(mu.weights, [5 / 6, 1 / 6], atol=1e-10)

    def test_periodic_chain_errors(self):
        m = TabularModel(trans=[[0.0, 1.0], [1.0, 0.0]], reward=[1.0, 0.0], gamma=0.9)
        with pytest.raises(RuntimeError):
            stationary_distribution(m)

    def test_slow_odd_circular_walk_solved_directly(self):
        # Irreducible and lazy, but power iteration does not settle in 100 * n
        # steps at n = 401; the direct solve gives the uniform law.
        m = make_circular_walk(401, 0.9, 1)
        mu = stationary_distribution(m)
        assert np.abs(mu.weights - 1.0 / 401).max() <= 1e-12

    @pytest.mark.parametrize(
        "trans",
        [
            [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]],  # period 3
            np.roll(np.eye(6), 1, axis=1) / 2 + np.roll(np.eye(6), -1, axis=1) / 2,  # period 2
            [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]],  # reducible
        ],
        ids=["cycle3", "ring6", "two-classes"],
    )
    def test_periodic_or_reducible_chain_still_errors(self, trans):
        m = TabularModel(trans=trans, reward=np.zeros(len(trans)), gamma=0.9)
        with pytest.raises(RuntimeError, match="reducible or periodic"):
            stationary_distribution(m, max_iters=200)

    @pytest.mark.parametrize(
        "trans",
        [
            [[1.0, 0.0], [0.0, 1.0]],  # settled on the start vector (0.75, 0.25)
            [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]],
        ],
        ids=["identity", "two-lazy-classes"],
    )
    def test_settled_reducible_chain_errors(self, trans):
        m = TabularModel(trans=trans, reward=np.zeros(len(trans)), gamma=0.9)
        with pytest.raises(RuntimeError, match="reducible"):
            stationary_distribution(m)

    def test_one_closed_class_with_transient_states(self):
        trans = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]  # state 0 is transient
        m = TabularModel(trans=trans, reward=np.zeros(3), gamma=0.9)
        assert np.abs(stationary_distribution(m).weights - [0.0, 0.5, 0.5]).max() <= 1e-10
        one = TabularModel(trans=[[1.0]], reward=[1.0], gamma=0.9)
        assert stationary_distribution(one).weights.tolist() == [1.0]

    def test_residual_postcondition(self):
        m = make_random_tabular(40, 0.9, 9)
        mu = stationary_distribution(m)
        assert np.abs(mu.weights @ m.trans - mu.weights).sum() <= 1e-10
        assert mu.weights.min() >= 0
        assert abs(mu.weights.sum() - 1.0) <= 1e-12



def random_pattern(kind: str, n: int, rng) -> np.ndarray:
    """A seeded 0/1 transition pattern of one of four kinds, every row nonempty."""
    pattern = rng.random((n, n)) < rng.uniform(0.05, 0.5)
    nxt = np.arange(n)  # a state each row may always step to: itself, but for cycles
    if kind == "periodic":  # k cyclic classes: edges only from class i to class i + 1
        k = int(rng.integers(2, min(n, 5) + 1))
        cls = rng.permutation(np.arange(n) % k)
        pattern &= cls[None, :] == (cls[:, None] + 1) % k
        nxt = np.array([rng.choice(np.flatnonzero(cls == (c + 1) % k)) for c in cls])
    elif kind == "transient":  # states below `cut` never return once they leave
        cut = int(rng.integers(1, n))
        pattern[cut:, :cut] = False
        pattern[:cut, cut:] |= rng.random((cut, n - cut)) < 0.3
    elif kind == "two-classes":  # closed [0, a) and [a, b); states from b on are transient
        a, b = sorted(rng.choice(np.arange(1, n + 1), size=2, replace=False))
        pattern[:a, a:] = False
        pattern[a:b, :a] = False
        pattern[a:b, b:] = False
        pattern[b:, :a] |= rng.random((n - b, a)) < 0.3
    empty = ~pattern.any(axis=1)
    pattern[np.flatnonzero(empty), nxt[empty]] = True
    return pattern


class TestGraphSearch:
    """The dense breadth-first search of ``stationary_distribution`` against
    scipy.sparse.csgraph and a boolean matrix-power test of aperiodicity."""

    @pytest.mark.parametrize("kind", ["random", "periodic", "transient", "two-classes"])
    def test_verdicts_match_reference(self, kind):
        from scipy.sparse import csgraph, csr_matrix

        from kbb.mrp import _bfs_levels, _irreducible_aperiodic

        rng = np.random.default_rng(["random", "periodic", "transient", "two-classes"].index(kind))
        verdicts = set()
        for n in range(2, 41):
            for _ in range(3):
                pattern = random_pattern(kind, n, rng)
                trans = pattern / pattern.sum(axis=1, keepdims=True)
                graph = csr_matrix(trans > 0)
                strong = csgraph.connected_components(graph, directed=True, connection="strong")[0] == 1
                power = pattern.astype(np.int64)
                for _ in range(11):  # pattern^(2^11): positive iff primitive, as 2^11 > (n-1)^2 + 1
                    power = np.minimum(power @ power, 1)
                expected = bool(strong and power.all())
                assert _irreducible_aperiodic(trans) == expected, (kind, n)
                verdicts.add(expected)
                into = csgraph.shortest_path(graph.T, unweighted=True)  # into[c, u]: steps from u to c
                for c in range(n):
                    assert (_bfs_levels((trans > 0).T, c) >= 0).all() == np.isfinite(into[c]).all()
        assert verdicts == ({True, False} if kind == "random" else {False})

class TestMuNorm:
    def test_ones(self):
        mu = Distribution([0.3, 0.7])
        assert mu_norm([1.0, 1.0], mu) == pytest.approx(1.0)

    def test_symmetric(self):
        mu = Distribution([0.5, 0.5])
        assert mu_norm([1.0, -1.0], mu) == pytest.approx(1.0)

    def test_hand_value(self):
        mu = Distribution([0.5, 0.5])
        assert mu_norm([3.0, 4.0], mu) == pytest.approx(np.sqrt(12.5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mu_norm([1.0], Distribution([0.5, 0.5]))


class TestReversibility:
    def test_circular_walk_reversible(self):
        m = make_circular_walk(10, 0.9, 1)
        assert is_reversible(m, stationary_distribution(m))

    def test_random_tabular_not_reversible(self):
        m = make_random_tabular(5, 0.9, 0)
        assert not is_reversible(m, stationary_distribution(m))

    def test_single_state(self):
        m = TabularModel(trans=[[1.0]], reward=[1.0], gamma=0.9)
        assert is_reversible(m, Distribution([1.0]))


class TestModelValidation:
    def test_bad_row_sum(self):
        with pytest.raises(ValueError):
            TabularModel(trans=[[0.5, 0.4], [0.5, 0.5]], reward=[1, 0], gamma=0.9)

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            TabularModel(trans=[[1.1, -0.1], [0.5, 0.5]], reward=[1, 0], gamma=0.9)

    def test_bad_gamma(self):
        for gamma in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                TabularModel(trans=[[1.0]], reward=[1.0], gamma=gamma)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=20))
def test_contraction_property(seed, n):
    """One Bellman step shrinks mu-distance by at least the discount factor."""
    m = make_random_tabular(n, 0.9, seed)
    mu = stationary_distribution(m)
    rng = np.random.default_rng(seed + 1)
    v, w = rng.normal(size=n), rng.normal(size=n)
    lhs = mu_norm(bellman_apply(m, v) - bellman_apply(m, w), mu)
    rhs = m.gamma * mu_norm(v - w, mu)
    assert lhs <= rhs + 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_residual_of_solution_is_zero(seed):
    m = make_random_tabular(6, 0.8, seed)
    v_star = solve_exact(m)
    assert np.abs(bellman_residual(m, v_star)).max() <= 1e-10 * max(1.0, np.abs(v_star).max())
