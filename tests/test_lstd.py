"""Empirical and population LSTD against hand systems and projection oracles."""

import numpy as np
import pytest

from kbb.diagnostics import QOperator, krylov_basis, q_inner
from kbb.envs import Dataset, DrawMode, make_circular_walk, sample_transitions
from kbb.lstd import (
    BasisSet,
    lstd_solve_population,
    lstd_system,
    solve_linear_system,
    span_correlation,
)
from kbb.mrp import TabularModel, mu_dot, solve_exact, stationary_distribution
from kbb.values import ConstantValueFn, TableValueFn


def tiny_dataset():
    # 3 handmade transitions on a 2-state space
    states = np.array([0, 1, 0], dtype=np.int64)
    rewards = np.array([1.0, 0.5, 1.0])
    next_states = np.array([1, 0, 0], dtype=np.int64)
    return Dataset(states, rewards, next_states, DrawMode.EXACT_STATIONARY)


def empirical_system(basis, data, gamma):
    # the sampled LSTD system as run_kbb assembles it
    return lstd_system(basis.evaluate(data.states), basis.evaluate(data.next_states), data.rewards, gamma)


class TestBuildSystem:
    def test_constant_basis(self):
        env = make_circular_walk(8, 0.9, 0)
        data = sample_transitions(env, 500, 1)
        basis = BasisSet([ConstantValueFn(1.0)])
        a, b = empirical_system(basis, data, env.gamma)
        assert a.shape == (1, 1) and b.shape == (1,)
        assert a[0, 0] == pytest.approx(1 - env.gamma, abs=1e-12)
        assert b[0] == pytest.approx(data.rewards.mean(), abs=1e-12)

    def test_gamma_zero_gives_gram_matrix(self):
        data = tiny_dataset()
        basis = BasisSet([TableValueFn([1.0, 2.0]), TableValueFn([0.5, -1.0])])
        a, _ = empirical_system(basis, data, 0.0)
        phi = basis.evaluate(data.states)
        assert np.allclose(a, phi.T @ phi / 3)

    def test_hand_computed_two_by_two(self):
        data = tiny_dataset()
        gamma = 0.5
        f1 = TableValueFn([1.0, 2.0])
        f2 = TableValueFn([0.0, 1.0])
        basis = BasisSet([f1, f2])
        phi = np.array([[1.0, 0.0], [2.0, 1.0], [1.0, 0.0]])
        phi_next = np.array([[2.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        a_hand = phi.T @ (phi - gamma * phi_next) / 3
        b_hand = phi.T @ data.rewards / 3
        a, b = empirical_system(basis, data, gamma)
        assert np.allclose(a, a_hand, atol=1e-15)
        assert np.allclose(b, b_hand, atol=1e-15)


class TestPopulationSolve:
    def test_full_indicator_basis_recovers_truth(self):
        env = make_circular_walk(10, 0.9, 2)
        mu = stationary_distribution(env)
        eye = np.eye(10)
        basis = BasisSet([TableValueFn(eye[:, j]) for j in range(10)])
        sol = lstd_solve_population(basis, env, mu)
        v = basis.evaluate(np.arange(10)) @ sol.coeffs
        assert np.abs(v - solve_exact(env)).max() <= 1e-9

    def test_truth_in_span_gives_unit_coefficient(self):
        env = make_circular_walk(10, 0.9, 3)
        mu = stationary_distribution(env)
        basis = BasisSet([TableValueFn(solve_exact(env))])
        sol = lstd_solve_population(basis, env, mu)
        assert sol.coeffs[0] == pytest.approx(1.0, abs=1e-10)

    def test_reward_basis_matches_scalar_hand_solve(self):
        env = TabularModel(trans=[[0.5, 0.5], [0.5, 0.5]], reward=[1.0, 0.0], gamma=0.9)
        mu = stationary_distribution(env)
        basis = BasisSet([TableValueFn(env.reward)])
        sol = lstd_solve_population(basis, env, mu)
        r = env.reward
        hand = mu_dot(r, r, mu) / mu_dot(r, r - env.gamma * env.trans @ r, mu)
        assert sol.coeffs[0] == pytest.approx(hand, abs=1e-12)

    def test_orthogonality_conditions(self):
        env = make_circular_walk(14, 0.9, 4)
        mu = stationary_distribution(env)
        qop = QOperator(env, mu)
        basis = krylov_basis(qop, 4)
        sol = lstd_solve_population(basis, env, mu)
        phi = basis.evaluate(np.arange(14))
        v = phi @ sol.coeffs
        from kbb.mrp import bellman_residual

        resid = bellman_residual(env, v)
        for j in range(len(basis)):
            assert abs(mu_dot(phi[:, j], resid, mu)) <= 1e-9

    def test_projection_in_q_norm(self):
        env = make_circular_walk(20, 0.9, 5)
        mu = stationary_distribution(env)
        qop = QOperator(env, mu)
        basis = krylov_basis(qop, 3)
        sol = lstd_solve_population(basis, env, mu)
        phi = basis.evaluate(np.arange(20))
        v_lstd = phi @ sol.coeffs
        v_star = solve_exact(env)
        # independent oracle: minimize ||Phi c - V*||_Q by normal equations on
        # the Q-inner-product Gram, with V* from the dense solve
        gram = np.array([[q_inner(qop, phi[:, i], phi[:, j]) for j in range(3)] for i in range(3)])
        rhs = np.array([q_inner(qop, phi[:, i], v_star) for i in range(3)])
        v_proj = phi @ np.linalg.solve(gram, rhs)
        assert np.abs(v_lstd - v_proj).max() <= 1e-8
        # and the projection inequality against random span elements
        rng = np.random.default_rng(0)
        best = q_inner(qop, v_lstd - v_star, v_lstd - v_star)
        for _ in range(100):
            v = phi @ rng.normal(size=3)
            assert best <= q_inner(qop, v - v_star, v - v_star) + 1e-9


class TestEmpiricalSolve:
    def test_converges_to_population(self):
        env = make_circular_walk(20, 0.9, 6)
        mu = stationary_distribution(env)
        qop = QOperator(env, mu)
        basis = krylov_basis(qop, 3)
        pop = lstd_solve_population(basis, env, mu)
        data = sample_transitions(env, 1_000_000, 9)
        emp = solve_linear_system(*empirical_system(basis, data, env.gamma))
        scale = np.abs(pop.coeffs).max()
        assert np.abs(emp.coeffs - pop.coeffs).max() <= 0.05 * scale

    def test_scale_equivariance(self):
        env = make_circular_walk(12, 0.9, 7)
        data = sample_transitions(env, 5000, 11)
        rng = np.random.default_rng(1)
        funcs = [TableValueFn(rng.normal(size=12)) for _ in range(3)]
        sol1 = solve_linear_system(*empirical_system(BasisSet(funcs), data, env.gamma))
        c = 7.5
        scaled = [TableValueFn(c * f.values) for f in funcs]
        sol2 = solve_linear_system(*empirical_system(BasisSet(scaled), data, env.gamma))
        assert sol1.ridge_used == 0.0 and sol2.ridge_used == 0.0
        assert np.abs(sol2.coeffs - sol1.coeffs / c).max() <= 1e-9 * np.abs(sol1.coeffs / c).max() + 1e-12
        v1 = BasisSet(funcs).evaluate(np.arange(12)) @ sol1.coeffs
        v2 = BasisSet(scaled).evaluate(np.arange(12)) @ sol2.coeffs
        assert np.abs(v1 - v2).max() <= 1e-9

    def test_ridge_fallback_on_duplicate_basis(self):
        env = make_circular_walk(12, 0.9, 8)
        data = sample_transitions(env, 2000, 13)
        f = TableValueFn(np.arange(12.0))
        sol = solve_linear_system(*empirical_system(BasisSet([f, f]), data, env.gamma))
        assert sol.ridge_used > 0.0
        assert np.isfinite(sol.coeffs).all()

    def test_hard_failure_surfaces(self):
        a = np.full((2, 2), np.nan)
        b = np.array([1.0, 1.0])
        with pytest.raises(RuntimeError):
            solve_linear_system(a, b)

    def test_singular_system_rescued_by_ridge(self):
        sol = solve_linear_system(np.zeros((2, 2)), np.array([1.0, 1.0]))
        assert sol.ridge_used > 0.0 and np.isfinite(sol.coeffs).all()


class TestSpanCorrelation:
    def test_orthogonal_vector(self):
        phi = np.array([[1.0], [0.0], [0.0]])
        assert span_correlation(phi, np.array([0.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_in_span_vector(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert span_correlation(phi, np.array([2.0, -3.0, 0.0])) == pytest.approx(1.0)

    def test_empty_basis(self):
        assert span_correlation(np.zeros((4, 0)), np.ones(4)) == 0.0

    def test_weighted(self):
        phi = np.ones((3, 1))
        w = np.array([1.0, 0.0, 0.0])
        # under weights concentrated on state 0 the vector (1, 99, -5) is
        # indistinguishable from the constant
        assert span_correlation(phi, np.array([1.0, 99.0, -5.0]), weights=w) == pytest.approx(1.0)
