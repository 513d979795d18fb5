"""Benchmark environment construction, ground truth, and sampling."""

import hashlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbb import algorithms, diagnostics, envs
from kbb.envs import (
    ArchModel,
    DrawMode,
    LqrModel,
    arch_contraction_factor,
    arch_true_value,
    lqr_true_value,
    make_arch,
    make_circular_walk,
    make_lqr,
    make_nonlinear,
    make_random_tabular,
    nonlinear_from_z,
    nonlinear_to_z,
    nonlinear_true_value,
    sample_transitions,
    simulate_linear_z,
    simulate_nonlinear_x,
    stationary_covariance,
    true_value,
)
from kbb.mrp import Distribution, TabularModel, solve_exact, stationary_distribution
from kbb.regression import RegressorConfig


class TestRandomTabular:
    def test_dimensions_match_benchmark(self):
        m = make_random_tabular(300, 0.9, 17)
        assert m.n_states == 300
        assert m.trans.shape == (300, 300)

    def test_determinism(self):
        a = make_random_tabular(20, 0.9, 5)
        b = make_random_tabular(20, 0.9, 5)
        assert np.array_equal(a.trans, b.trans) and np.array_equal(a.reward, b.reward)

    def test_rows_normalized(self):
        m = make_random_tabular(3, 0.5, 7)
        assert np.abs(m.trans.sum(axis=1) - 1.0).max() <= 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_random_tabular(1, 0.9, 0)


class TestCircularWalk:
    def test_stencil_row0(self):
        m = make_circular_walk(200, 0.9, 3)
        row = m.trans[0]
        expected = {198: 1 / 6, 199: 1 / 6, 0: 1 / 3, 1: 1 / 6, 2: 1 / 6}
        nz = np.nonzero(row)[0]
        assert set(nz.tolist()) == set(expected)
        for idx, val in expected.items():
            assert row[idx] == pytest.approx(val, abs=1e-15)

    def test_doubly_stochastic_uniform_stationary(self):
        m = make_circular_walk(31, 0.9, 0)
        assert np.abs(m.trans.sum(axis=0) - 1.0).max() <= 1e-12
        mu = stationary_distribution(m)
        assert np.abs(mu.weights - 1 / 31).max() <= 1e-10

    def test_reversible(self):
        from kbb.mrp import is_reversible

        m = make_circular_walk(16, 0.9, 0)
        assert is_reversible(m, stationary_distribution(m))

    def test_rejects_overlapping_stencil(self):
        with pytest.raises(ValueError):
            make_circular_walk(4, 0.9, 0)


class TestLqr:
    def test_benchmark_dimensions(self):
        m = make_lqr(5, 3, 0.9, 1)
        assert m.a_mat.shape == (5, 5) and m.b_mat.shape == (5, 3) and m.k_mat.shape == (3, 5)

    def test_spectral_radius_target(self):
        m = make_lqr(5, 3, 0.9, 2)
        rho = np.abs(np.linalg.eigvals(m.closed_loop)).max()
        assert rho == pytest.approx(0.9, abs=1e-10)

    def test_cost_psd(self):
        m = make_lqr(4, 2, 0.9, 3)
        assert np.linalg.eigvalsh(m.q_cost).min() >= -1e-10
        assert np.linalg.eigvalsh(m.r_cost).min() >= -1e-10

    def test_true_value_zero_noise_zero_state(self):
        m = make_lqr(3, 2, 0.9, 4)
        m0 = LqrModel(
            a_mat=m.a_mat, b_mat=m.b_mat, k_mat=m.k_mat,
            q_cost=m.q_cost, r_cost=m.r_cost,
            noise_cov=np.zeros((3, 3)), gamma=m.gamma,
        )
        v = lqr_true_value(m0)
        assert v(np.zeros((1, 3)))[0] == pytest.approx(0.0, abs=1e-12)

    def test_true_value_terminates_in_one_step_when_loop_is_zero(self):
        d = 3
        rng = np.random.default_rng(0)
        g = rng.uniform(size=(d, d))
        q = g.T @ g
        m = LqrModel(
            a_mat=np.zeros((d, d)), b_mat=np.zeros((d, 1)), k_mat=np.zeros((1, d)),
            q_cost=q, r_cost=np.zeros((1, 1)), noise_cov=0.1 * np.eye(d), gamma=0.5,
        )
        v = lqr_true_value(m)
        assert np.abs(v.p_mat - q).max() <= 1e-12

    def test_kronecker_oracle(self):
        m = make_lqr(2, 2, 0.9, 5)
        v = lqr_true_value(m)
        mm, c = m.closed_loop, m.cost_mat
        vec = np.linalg.solve(np.eye(4) - m.gamma * np.kron(mm.T, mm.T), c.ravel())
        assert np.abs(v.p_mat - vec.reshape(2, 2)).max() <= 1e-8

    def test_fixed_point_residual(self):
        m = make_lqr(5, 3, 0.95, 6)
        v = lqr_true_value(m)
        mm, c = m.closed_loop, m.cost_mat
        resid = np.abs(v.p_mat - (c + m.gamma * mm.T @ v.p_mat @ mm)).max()
        assert resid <= 1e-10 * max(1.0, np.abs(v.p_mat).max())


class TestNonlinear:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(50, 3))
        assert np.abs(nonlinear_to_z(nonlinear_from_z(z)) - z).max() <= 1e-12
        x = rng.normal(size=(50, 3))
        assert np.abs(nonlinear_from_z(nonlinear_to_z(x)) - x).max() <= 1e-12

    def test_origin_and_hand_point(self):
        assert np.allclose(nonlinear_to_z(np.zeros((1, 3))), 0.0)
        z = nonlinear_to_z(np.array([[1.0, 2.0, 3.0]]))
        assert np.allclose(z, [[-3.0, 2.0, 2.0]])

    def test_truth_composes_inner(self):
        m = make_nonlinear(0.9, 7)
        vx = nonlinear_true_value(m)
        vz = lqr_true_value(m.inner)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(20, 3))
        assert np.abs(vx(x) - vz(nonlinear_to_z(x))).max() <= 1e-10

    def test_simulation_coordinate_equivalence(self):
        m = make_nonlinear(0.9, 3)
        rng = np.random.default_rng(5)
        noise = 0.1 * rng.standard_normal((1000, 3))
        z0 = rng.standard_normal(3)
        zs = simulate_linear_z(m, z0, noise)
        xs = simulate_nonlinear_x(m, nonlinear_from_z(z0[None, :])[0], noise)
        assert np.abs(nonlinear_to_z(xs) - zs).max() <= 1e-12


class TestArch:
    def test_benchmark_dimensions(self):
        m = make_arch(5, 0.5, 0.9, 1)
        assert m.d == 5 and m.q_scalar == 0.5

    def test_contraction_certified(self):
        for seed in range(5):
            m = make_arch(5, 0.5, 0.99, seed)
            assert arch_contraction_factor(m) <= 0.95 + 1e-12

    def test_origin_fixed_when_q_zero(self):
        m = make_arch(3, 0.0, 0.9, 2)
        rng = np.random.default_rng(0)
        x = np.zeros((1, 3))
        for _ in range(10):
            scale = np.sqrt(m.q_scalar + (x @ m.scale_mat * x).sum())
            x = x @ m.a_mat.T + scale * rng.standard_normal((1, 3))
        assert np.abs(x).max() == 0.0
        assert arch_true_value(m)(np.zeros((1, 3)))[0] == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_dynamics_give_cost_matrix(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(size=(3, 3))
        r = g.T @ g
        m = ArchModel(
            a_mat=np.zeros((3, 3)), scale_mat=np.zeros((3, 3)), cost_mat=r,
            q_scalar=0.5, noise_cov=0.1 * np.eye(3), gamma=0.9,
        )
        v = arch_true_value(m)
        assert np.abs(v.p_mat - r).max() <= 1e-12

    def test_q_zero_offset_zero(self):
        m = make_arch(3, 0.0, 0.9, 4)
        assert arch_true_value(m).offset == 0.0

    def test_kronecker_oracle(self):
        m = make_arch(2, 0.5, 0.9, 5)
        v = arch_true_value(m)
        lhs = (
            np.eye(4)
            - m.gamma * np.kron(m.a_mat.T, m.a_mat.T)
            - m.gamma * np.outer(m.scale_mat.ravel(), m.noise_cov.ravel())
        )
        p = np.linalg.solve(lhs, m.cost_mat.ravel()).reshape(2, 2)
        assert np.abs(v.p_mat - p).max() <= 1e-8


class TestSampling:
    def test_circular_frequencies_uniform(self):
        env = make_circular_walk(10, 0.9, 0)
        ds = sample_transitions(env, 10_000, 42)
        counts = np.bincount(ds.states, minlength=10)
        # 3-sigma multinomial bound around n/10
        sigma = np.sqrt(10_000 * 0.1 * 0.9)
        assert np.abs(counts - 1000).max() <= 3 * sigma

    def test_next_state_distribution(self):
        env = make_circular_walk(10, 0.9, 0)
        ds = sample_transitions(env, 50_000, 7)
        mask = ds.states == 0
        vals, counts = np.unique(ds.next_states[mask], return_counts=True)
        freq = counts / mask.sum()
        expected = {8: 1 / 6, 9: 1 / 6, 0: 1 / 3, 1: 1 / 6, 2: 1 / 6}
        assert set(vals.tolist()) == set(expected)
        for v, f in zip(vals, freq):
            assert abs(f - expected[int(v)]) <= 0.02

    def test_lqr_zero_noise_states(self):
        m = make_lqr(3, 2, 0.9, 4)
        m0 = LqrModel(
            a_mat=m.a_mat, b_mat=m.b_mat, k_mat=m.k_mat,
            q_cost=m.q_cost, r_cost=m.r_cost,
            noise_cov=np.zeros((3, 3)), gamma=m.gamma,
        )
        ds = sample_transitions(m0, 100, 3)
        assert np.abs(ds.states).max() == 0.0

    def test_rewards_deterministic_function_of_state(self):
        env = make_lqr(3, 2, 0.9, 8)
        ds = sample_transitions(env, 200, 9)
        expected = np.einsum("ni,ij,nj->n", ds.states, env.cost_mat, ds.states)
        assert np.abs(ds.rewards - expected).max() <= 1e-12

    def test_arch_uses_trajectory_mode(self):
        env = make_arch(3, 0.5, 0.9, 1)
        ds = sample_transitions(env, 50, 2)
        assert ds.draw_mode is DrawMode.BURN_IN_TRAJECTORY

    def test_same_seed_identical_bytes(self):
        for env in (make_circular_walk(8, 0.9, 0), make_lqr(3, 2, 0.9, 1),
                    make_nonlinear(0.9, 2), make_arch(3, 0.5, 0.9, 3)):
            a = sample_transitions(env, 64, 11)
            b = sample_transitions(env, 64, 11)
            for name in ("states", "rewards", "next_states"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_lqr_stationary_covariance(self):
        m = make_lqr(4, 2, 0.9, 6)
        s = stationary_covariance(m)
        mm = m.closed_loop
        assert np.abs(s - (mm @ s @ mm.T + m.noise_cov)).max() <= 1e-10

    def test_stationary_empirical_covariance(self):
        m = make_lqr(3, 2, 0.9, 6)
        ds = sample_transitions(m, 200_000, 5)
        emp = ds.states.T @ ds.states / len(ds)
        s = stationary_covariance(m)
        assert np.abs(emp - s).max() <= 6 * np.abs(s).max() / np.sqrt(200_000 / 10)


def reference_tabular(model, n, seed):
    """The per-state-mask sampler that the grouped one replaced: one
    ``states == s`` mask over all draws per distinct drawn state."""
    rng = np.random.default_rng(seed)
    cdf_mu = np.cumsum(stationary_distribution(model).weights)
    cdf_mu[-1] = 1.0
    states = np.searchsorted(cdf_mu, rng.random(n), side="right").astype(np.int64)
    cdf_rows = np.cumsum(model.trans, axis=1)
    cdf_rows[:, -1] = 1.0
    u = rng.random(n)
    nxt = np.empty(n, dtype=np.int64)
    for s in np.unique(states):
        mask = states == s
        nxt[mask] = np.searchsorted(cdf_rows[s], u[mask], side="right")
    return states, model.reward[states], nxt


def reference_arch(model, n, seed):
    """The per-step ARCH sampler that the blocked 1-d one replaced: (1, d)
    row vectors and one standard_normal((1, d)) draw per step."""
    rng = np.random.default_rng(seed)
    factor = envs._psd_factor(model.noise_cov).T

    def step(x):
        w = rng.standard_normal((1, model.d)) @ factor
        scale = np.sqrt(model.q_scalar + np.einsum("ni,ij,nj->n", x, model.scale_mat, x))
        return x @ model.a_mat.T + scale[:, None] * w

    x = np.zeros((1, model.d))
    for _ in range(envs.ARCH_BURN_IN):
        x = step(x)
    states, next_states = np.empty((n, model.d)), np.empty((n, model.d))
    for i in range(n):
        states[i] = x[0]
        x = step(x)
        next_states[i] = x[0]
        for _ in range(envs.ARCH_STRIDE - 1):
            x = step(x)
    return states, np.einsum("ni,ij,nj->n", states, model.cost_mat, states), next_states


def arch_with_full_noise(d, seed):
    """An ARCH model with a non-diagonal noise covariance, rescaled to stay a contraction."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(d, d))
    a *= 0.6 / np.linalg.norm(a, 2)
    m = rng.normal(size=(d, d))
    noise = 0.05 * (m @ m.T) + 0.01 * np.eye(d)
    g = rng.uniform(size=(d, d))
    scale = g.T @ g
    scale *= 0.4 / (np.linalg.norm(scale, "fro") * np.linalg.norm(noise, "fro"))
    c = rng.uniform(size=(d, d))
    return ArchModel(a_mat=a, scale_mat=scale, cost_mat=c.T @ c, q_scalar=0.3, noise_cov=noise, gamma=0.9)


def assert_same_draws(ds, ref):
    for got, want in zip((ds.states, ds.rewards, ds.next_states), ref):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def sample_digest(ds):
    h = hashlib.sha256()
    for arr in (ds.states, ds.rewards, ds.next_states):
        h.update(arr.tobytes())
    return h.hexdigest()


class TestSamplersMatchReference:
    """The guided tabular and blocked ARCH samplers against test-only copies
    of earlier samplers, bit for bit."""

    @pytest.mark.parametrize(
        "model,n",
        [
            (make_circular_walk(400, 0.9, 1), 100_000),
            (make_random_tabular(300, 0.9, 2), 20_000),  # dense rows, uint16 guide tables
            (make_circular_walk(400, 0.9, 1), 50),  # most states undrawn
            (make_circular_walk(400, 0.9, 1), 1),
            (TabularModel(trans=[[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
                          reward=[1.0, 2.0, 3.0], gamma=0.9), 5000),  # a transient state
        ],
        ids=["walk400", "random300", "walk-50-draws", "one-draw", "transient"],
    )
    def test_tabular(self, model, n):
        assert_same_draws(sample_transitions(model, n, 5), reference_tabular(model, n, 5))

    @pytest.mark.parametrize(
        "model,n",
        [
            (make_arch(5, 0.5, 0.9, 10), 700),  # two noise blocks
            (arch_with_full_noise(1, 0), 400),
            (arch_with_full_noise(3, 1), 400),
            (arch_with_full_noise(8, 2), 400),
            (make_arch(2, 0.0, 0.9, 3), 1),
        ],
        ids=["make_arch5", "full-noise-d1", "full-noise-d3", "full-noise-d8", "one-draw"],
    )
    def test_arch(self, model, n):
        ref = reference_arch(model, n, 7)
        assert_same_draws(sample_transitions(model, n, 7), ref)
        assert np.array_equal(envs.stationary_states(model, n, 7), ref[0])

    def test_noise_block_boundary(self, monkeypatch):
        # Blocks that end mid-stride and a last block of one step.
        model = arch_with_full_noise(3, 4)
        monkeypatch.setattr(envs, "ARCH_BLOCK", 7)
        n = 38  # 1000 + 380 steps: 197 blocks of 7, then one of 1
        assert (envs.ARCH_BURN_IN + n * envs.ARCH_STRIDE) % 7 == 1
        assert_same_draws(sample_transitions(model, n, 2), reference_arch(model, n, 2))

    def test_hash_pins(self):
        # Recorded with the per-state-mask and per-step samplers.
        walk = sample_transitions(make_circular_walk(400, 0.9, 1), 100_000, 5)
        assert sample_digest(walk) == "8b9d1206d71858a1a258f4aefd061f8914f6113cb56b0b81070fb13ce15ddcb3"
        arch = sample_transitions(make_arch(5, 0.5, 0.9, 10), 2000, 3)
        assert sample_digest(arch) == "99a6287f62776f1ae8964e3f9d4f1a9fbabbb731bb0be087f00db1733148832a"


def draws_one_at_a_time(env, specs):
    return [sample_transitions(env, n, seed) for n, seed in specs]


class TestLockstepDraws:
    """``transition_draws`` steps ARCH chains in lockstep, each with the bits
    of its own ``sample_transitions`` call, and draws every other kind one
    call at a time, when asked."""

    @pytest.mark.parametrize("d", range(1, 9))
    @pytest.mark.parametrize("ns", [
        [37],
        [1, 140, 60],  # a one-pair chain among longer ones
        [90, 1, 250, 90, 12, 1, 180, 33, 64],  # nine chains, ties included
    ], ids=["1-chain", "3-chains", "9-chains"])
    def test_each_chain_matches_its_own_draw(self, d, ns):
        model = make_arch(d, 0.5, 0.9, d) if d % 2 else arch_with_full_noise(d, d)
        specs = [(n, 100 * d + j) for j, n in enumerate(ns)]
        got = list(envs.transition_draws(model, specs))
        assert len(got) == len(specs)
        for ds, want in zip(got, draws_one_at_a_time(model, specs)):
            assert ds.draw_mode == DrawMode.BURN_IN_TRAJECTORY
            assert_same_draws(ds, (want.states, want.rewards, want.next_states))

    def test_noise_block_boundaries(self, monkeypatch):
        # Chains ending mid-block, on a block start and in a last block of one step.
        monkeypatch.setattr(envs, "ARCH_BLOCK", 7)
        model = arch_with_full_noise(3, 4)
        specs = [(38, 1), (7, 2), (14, 3), (37, 4)]
        for ds, want in zip(envs.transition_draws(model, specs), draws_one_at_a_time(model, specs)):
            assert_same_draws(ds, (want.states, want.rewards, want.next_states))

    def test_arch_draws_all_on_the_first_request(self, monkeypatch):
        calls = []
        sample = envs._sample_arch
        monkeypatch.setattr(envs, "_sample_arch", lambda m, chains: calls.append(len(chains)) or sample(m, chains))
        draws = envs.transition_draws(make_arch(3, 0.5, 0.9, 3), [(5, 1), (8, 2), (3, 3)])
        assert calls == []
        assert [len(ds) for ds in draws] == [5, 8, 3]
        assert calls == [3]

    @pytest.mark.parametrize("env", [make_circular_walk(20, 0.9, 1), make_lqr(3, 2, 0.9, 1), make_nonlinear(0.9, 2)],
                             ids=["tabular", "lqr", "nonlinear"])
    def test_other_kinds_draw_on_request(self, env, monkeypatch):
        calls = []
        sample = envs.sample_transitions
        monkeypatch.setattr(envs, "sample_transitions", lambda e, n, seed: calls.append((n, seed)) or sample(e, n, seed))
        specs = [(50, 1), (20, 2)]
        draws = envs.transition_draws(env, specs)
        assert calls == []
        for j, (ds, want) in enumerate(zip(draws, draws_one_at_a_time(env, specs))):
            assert calls == specs[: j + 1]
            assert_same_draws(ds, (want.states, want.rewards, want.next_states))

    def test_rejects_a_draw_of_no_pairs(self):
        with pytest.raises(ValueError, match="n must be positive"):
            next(envs.transition_draws(make_arch(3, 0.5, 0.9, 3), [(5, 1), (0, 2)]))
        assert list(envs.transition_draws(make_arch(3, 0.5, 0.9, 3), [])) == []

    @pytest.mark.parametrize("model", [make_arch(2, 0.5, 0.9, 11), make_arch(5, 0.5, 0.9, 10)], ids=["d2", "d5"])
    @pytest.mark.parametrize("run,shared", [
        (algorithms.run_kbb, True), (algorithms.run_kbb, False), (algorithms.run_fvi, True),
    ], ids=["kbb-shared", "kbb-separate", "fvi"])
    def test_runs_match_the_reference_sampler(self, model, run, shared, monkeypatch):
        cfg = RegressorConfig(kind="boosted_trees", n_trees=5, max_depth=2, min_leaf=20)
        budget = algorithms.IterationBudget(n_per_iter=60, max_iters=3, first_iter_multiplier=3, shared_data=shared)
        got = run(model, cfg, budget, seed=4, n_eval=300, eval_seed=9)
        monkeypatch.setattr(envs, "transition_draws", lambda env, specs: (
            envs.Dataset(*reference_arch(env, n, seed), DrawMode.BURN_IN_TRAJECTORY) for n, seed in specs))
        want = run(model, cfg, budget, seed=4, n_eval=300, eval_seed=9)
        assert got.initial_error == want.initial_error and got.meta == want.meta
        assert [r.__dict__ | {"wall_ms": 0} for r in got.rows] == [r.__dict__ | {"wall_ms": 0} for r in want.rows]


def hub_chain(n, density, zero_share, seed):
    """A random chain with one closed class: every row puts over half its
    mass on a hub state whose own row reaches every recurrent state, rows
    are otherwise kept with probability ``density``, and the states in about
    ``zero_share`` of the columns are entered by no row, so their stationary
    weight is exactly 0."""
    rng = np.random.default_rng(seed)
    trans = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < density)
    hub = int(rng.integers(n))
    zero = rng.uniform(size=n) < zero_share
    zero[hub] = False
    trans[hub] = rng.uniform(0.1, 1.0, size=n)
    trans[:, zero] = 0.0
    trans[:, hub] += trans.sum(axis=1) + rng.uniform(0.1, 1.0, size=n)
    trans /= trans.sum(axis=1, keepdims=True)
    return TabularModel(trans=trans, reward=rng.uniform(size=n), gamma=0.9)


class TestGuidedTabularSampler:
    """The cutpoint-guided tabular sampler: bit for bit what a binary search
    of each draw's CDF gives, with tables built once per model object that
    take no more bytes than the CDFs."""

    def test_row_whose_cumsum_overshoots_one(self):
        row = [0.18665256000226096, 0.14817231948955542, 0.5497833810364157,
               0.06178872449162648, 0.05360301498014156, 0.0]
        assert np.cumsum(row)[-2] > 1.0
        trans = np.array([row, row[1:] + row[:1], row[2:] + row[:2], row, row, row])
        model = TabularModel(trans=trans, reward=np.arange(6.0), gamma=0.9)
        for seed in range(20):
            assert_same_draws(sample_transitions(model, 2000, seed), reference_tabular(model, 2000, seed))

    def test_single_state_chain(self):
        model = TabularModel(trans=[[1.0]], reward=[2.0], gamma=0.9)
        ds = sample_transitions(model, 1000, 3)
        assert_same_draws(ds, reference_tabular(model, 1000, 3))
        assert not ds.states.any() and not ds.next_states.any()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        density=st.sampled_from([0.05, 0.3, 1.0]),
        zero_share=st.sampled_from([0.0, 0.3, 0.7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_chains_match_reference(self, n, density, zero_share, seed):
        model = hub_chain(n, density, zero_share, seed)
        assert_same_draws(sample_transitions(model, 3000, seed), reference_tabular(model, 3000, seed))

    @pytest.mark.parametrize("nonzeros", [1, 2, 8])
    def test_search_at_ties_and_bucket_edges(self, nonzeros):
        # Dyadic entries sit on bucket edges, repeated entries are ties, and
        # the probes are every edge and every entry with their neighbours.
        cdfs = np.array([
            [0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0],
            [0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 1.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.1, 0.2, 0.3, 0.5, 1.0000000000000002, 1.0000000000000002, 1.0000000000000002, 1.0],
        ])
        guide = envs._guide(cdfs, nonzeros)
        points = np.concatenate((np.arange(64) / 64, cdfs.ravel()))
        u = np.unique(np.concatenate((points, np.nextafter(points, 0.0), np.nextafter(points, 1.0))))
        u = u[(u >= 0.0) & (u < 1.0)]
        rows = np.repeat(np.arange(len(cdfs)), len(u))
        want = np.concatenate([np.searchsorted(row, u, side="right") for row in cdfs])
        got = envs._guided_search(cdfs, guide, np.tile(u, len(cdfs)), rows)
        assert got.dtype == np.int64 and np.array_equal(got, want)

    def test_tables_built_once_per_model(self, monkeypatch):
        builds = []
        guide = envs._guide
        monkeypatch.setattr(envs, "_guide", lambda cdfs, nonzeros: builds.append(cdfs.shape) or guide(cdfs, nonzeros))
        walk = make_circular_walk(20, 0.9, 0)
        draws = [sample_transitions(walk, 50, seed) for seed in (1, 2, 1)]
        envs.stationary_states(walk, 30, 4)
        assert builds == [(1, 20), (20, 20)]
        assert_same_draws(draws[2], (draws[0].states, draws[0].rewards, draws[0].next_states))
        tables = envs._tabular_cdfs(walk)
        assert all(not t.flags.writeable for t in tables)
        other = make_circular_walk(20, 0.9, 0)
        assert_same_draws(sample_transitions(other, 50, 2), (draws[1].states, draws[1].rewards, draws[1].next_states))
        assert len(builds) == 4
        assert envs._tabular_cdfs(walk) is tables
        assert all(a is not b for a, b in zip(tables, envs._tabular_cdfs(other)))

    @pytest.mark.parametrize(
        "model,grouped_peak",
        [
            # tracemalloc peaks of the grouped sampler that this one replaced
            # (argsort, bincount, per-state loop, scatter): 22.42 MB on both.
            (make_circular_walk(400, 0.9, 1), 22_424_043),
            (make_random_tabular(300, 0.9, 2), 22_416_243),
        ],
        ids=["walk400", "random300"],
    )
    def test_peak_memory_at_most_the_grouped_sampler(self, model, grouped_peak):
        sample_transitions(model, 10, 0)  # the law and the tables
        tracemalloc.start()
        try:
            sample_transitions(model, 400_000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= grouped_peak

    def test_tables_take_no_more_bytes_than_the_cdfs(self):
        walk1001 = make_circular_walk(1001, 0.9, 1)
        # The walk is doubly stochastic, so its law is uniform; solving it
        # takes tens of seconds at this odd size.
        envs._memo(walk1001, "stationary_law", lambda: Distribution(np.full(1001, 1.0 / 1001)))
        for model in (make_circular_walk(400, 0.9, 1), walk1001, make_random_tabular(300, 0.9, 2)):
            cdf_mu, guide_mu, cdf_rows, guide_rows = envs._tabular_cdfs(model)
            assert guide_mu.nbytes <= cdf_mu.nbytes and guide_rows.nbytes <= cdf_rows.nbytes


class TestPerModelValues:
    """Stationary laws, evaluation states and ground truth are built once per model object."""

    MODELS = {
        "tabular": lambda: make_random_tabular(12, 0.9, 3),
        "lqr": lambda: make_lqr(3, 2, 0.9, 1),
        "nonlinear": lambda: make_nonlinear(0.9, 2),
        "arch": lambda: make_arch(3, 0.5, 0.9, 3),
    }

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_states_read_only_and_equal_to_fresh_draws(self, kind):
        model = self.MODELS[kind]()
        first = envs.stationary_states(model, 300, 1)
        other = envs.stationary_states(model, 300, 2)
        again = envs.stationary_states(model, 300, 1)
        assert again is first and not first.flags.writeable and not other.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 0
        for seed, got in ((1, again), (2, other)):
            fresh = envs.stationary_states(self.MODELS[kind](), 300, seed)
            assert got.dtype == fresh.dtype and np.array_equal(got, fresh)

    def test_equal_models_do_not_share_entries(self):
        a, b = make_arch(3, 0.5, 0.9, 3), make_arch(3, 0.5, 0.9, 3)
        assert np.array_equal(a.a_mat, b.a_mat)
        assert envs.stationary_states(a, 50, 1) is not envs.stationary_states(b, 50, 1)
        assert true_value(a) is true_value(a) and true_value(a) is not true_value(b)
        walk_a, walk_b = make_circular_walk(8, 0.9, 0), make_circular_walk(8, 0.9, 0)
        assert envs.stationary_law(walk_a) is envs.stationary_law(walk_a)
        assert envs.stationary_law(walk_a) is not envs.stationary_law(walk_b)

    def test_concurrent_callers_build_once(self, monkeypatch):
        builds = []
        draw = envs._sample

        def slow_draw(env, n, seed):
            builds.append(seed)
            time.sleep(0.05)
            return draw(env, n, seed)

        monkeypatch.setattr(envs, "_sample", slow_draw)
        model = make_arch(3, 0.5, 0.9, 3)
        results = [None] * 8

        def call(j):
            results[j] = envs.stationary_states(model, 100, 9)

        threads = [threading.Thread(target=call, args=(j,)) for j in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert builds == [9]
        assert all(r is results[0] for r in results)

    @pytest.mark.parametrize("kind", ["lqr", "nonlinear"])
    def test_lqr_covariance_solved_once(self, kind, monkeypatch):
        solves = []
        monkeypatch.setattr(envs, "stationary_covariance", lambda m: solves.append(m) or stationary_covariance(m))
        model = self.MODELS[kind]()
        draws = [envs.sample_transitions(model, 50, seed) for seed in (1, 2, 1)]
        assert len(solves) == 1
        assert np.array_equal(draws[0].states, draws[2].states)
        assert np.array_equal(draws[1].next_states, envs.sample_transitions(self.MODELS[kind](), 50, 2).next_states)
        assert len(solves) == 2

    def test_tabular_law_solved_once(self, monkeypatch):
        solves = []
        for module in (envs, diagnostics, algorithms):
            monkeypatch.setattr(module, "stationary_distribution",
                                lambda m: solves.append(m) or stationary_distribution(m))
        walk = make_circular_walk(20, 0.9, 0)
        diagnostics.check_theorem1_rate(walk, 5)
        diagnostics.spectra_table(walk, 5)
        envs.sample_transitions(walk, 50, 1)
        assert len(solves) == 1

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_no_states_is_an_error(self, kind):
        with pytest.raises(ValueError, match="n must be positive"):
            envs.stationary_states(self.MODELS[kind](), 0, 1)

    @pytest.mark.parametrize("read", [
        lambda x: envs.stationary_states(x, 10, 0),
        true_value,
        lambda x: envs.sample_transitions(x, 10, 0),
        envs.env_params,
        lambda x: next(envs.vi_iterates(x)),
    ], ids=["stationary_states", "true_value", "sample_transitions", "env_params", "vi_iterates"])
    def test_unsupported_kind(self, read):
        with pytest.raises(ValueError, match="unsupported model kind"):
            read("not a model")


class TestGroundTruthBellmanConsistency:
    """r(x) + gamma E[V*(x')] must equal V*(x) on stationary draws."""

    @pytest.mark.parametrize("kind", ["lqr", "nonlinear", "arch"])
    def test_monte_carlo_consistency(self, kind):
        if kind == "lqr":
            env = make_lqr(5, 3, 0.9, 10)
        elif kind == "nonlinear":
            env = make_nonlinear(0.9, 10)
        else:
            env = make_arch(5, 0.5, 0.9, 10)
        truth = true_value(env)
        n_states, n_draws = 10_000, 200
        states = envs.stationary_states(env, n_states, 123)
        rng = np.random.default_rng(321)
        if kind == "nonlinear":
            inner = env.inner
            z = nonlinear_to_z(states)
            rewards = np.einsum("ni,ij,nj->n", z, inner.cost_mat, z)
        elif kind == "lqr":
            rewards = np.einsum("ni,ij,nj->n", states, env.cost_mat, states)
        else:
            rewards = np.einsum("ni,ij,nj->n", states, env.cost_mat, states)
        gamma = env.inner.gamma if kind == "nonlinear" else env.gamma
        backup = np.empty((n_draws, n_states))
        for j in range(n_draws):
            w = rng.standard_normal((n_states, 3 if kind == "nonlinear" else env.d))
            if kind == "lqr":
                nxt = states @ env.closed_loop.T + w @ np.linalg.cholesky(env.noise_cov).T
            elif kind == "nonlinear":
                z_next = z @ inner.closed_loop.T + w @ np.linalg.cholesky(inner.noise_cov).T
                nxt = nonlinear_from_z(z_next)
            else:
                scale = np.sqrt(env.q_scalar + np.einsum("ni,ij,nj->n", states, env.scale_mat, states))
                nxt = states @ env.a_mat.T + scale[:, None] * (w @ np.linalg.cholesky(env.noise_cov).T)
            backup[j] = rewards + gamma * truth(nxt)
        mean = backup.mean(axis=0)
        stderr = backup.std(axis=0, ddof=1) / np.sqrt(n_draws)
        ok = np.abs(mean - truth(states)) <= 4 * np.maximum(stderr, 1e-12)
        assert ok.mean() >= 0.95


class TestDataset:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            envs.Dataset(np.zeros((0, 2)), np.zeros(0), np.zeros((0, 2)), DrawMode.EXACT_STATIONARY)
        with pytest.raises(ValueError):
            envs.Dataset(np.zeros(3, dtype=np.int64), np.zeros(3), np.zeros((3, 2)), DrawMode.EXACT_STATIONARY)


class TestModelValidation:
    def test_unstable_closed_loop_rejected(self):
        with pytest.raises(ValueError):
            LqrModel(
                a_mat=1.5 * np.eye(2), b_mat=np.zeros((2, 1)), k_mat=np.zeros((1, 2)),
                q_cost=np.eye(2), r_cost=np.eye(1), noise_cov=np.eye(2), gamma=0.9,
            )

    def test_non_psd_cost_rejected(self):
        with pytest.raises(ValueError):
            LqrModel(
                a_mat=0.5 * np.eye(2), b_mat=np.zeros((2, 1)), k_mat=np.zeros((1, 2)),
                q_cost=np.array([[1.0, 0.0], [0.0, -1.0]]), r_cost=np.eye(1),
                noise_cov=np.eye(2), gamma=0.9,
            )

    def test_non_contractive_arch_rejected(self):
        with pytest.raises(ValueError):
            ArchModel(
                a_mat=np.eye(3), scale_mat=np.eye(3), cost_mat=np.eye(3),
                q_scalar=0.5, noise_cov=np.eye(3), gamma=0.99,
            )
