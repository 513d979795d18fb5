"""Discount-operator machinery, Krylov bases, spectral values, oracle runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbb.diagnostics import (
    QOperator,
    SpectralPair,
    check_theorem1_rate,
    krylov_basis,
    krylov_projection_solution,
    oracle_kbb,
    q_inner,
    restricted_spectral_values,
    spectra_table,
    theorem_bound,
)
from kbb.envs import make_circular_walk, make_random_tabular
from kbb.lstd import BasisSet
from kbb.mrp import TabularModel, mu_norm, solve_exact, stationary_distribution
from kbb.values import TableValueFn


def symmetric_chain(n=2):
    return TabularModel(trans=np.full((n, n), 1.0 / n), reward=np.linspace(1, 0, n), gamma=0.9)


class TestQOperator:
    def test_inverse_residual(self):
        qop = QOperator(make_circular_walk(12, 0.9, 0))
        assert np.abs(qop.q_mat @ qop.q_inv - np.eye(12)).max() <= 1e-9

    def test_self_adjoint_under_reversibility(self):
        qop = QOperator(make_circular_walk(12, 0.9, 0))
        d = np.diag(qop.mu.weights)
        assert np.abs(d @ qop.q_mat - qop.q_mat.T @ d).max() <= 1e-10

    def test_reversibility_flag(self):
        assert QOperator(make_circular_walk(8, 0.9, 0)).reversible
        assert not QOperator(make_random_tabular(6, 0.9, 0)).reversible


class TestQInner:
    def test_constants(self):
        qop = QOperator(make_circular_walk(10, 0.9, 0))
        ones = np.ones(10)
        assert q_inner(qop, ones, ones) == pytest.approx(1 - 0.9, abs=1e-12)

    def test_dense_oracle(self):
        env = make_circular_walk(10, 0.9, 1)
        qop = QOperator(env)
        rng = np.random.default_rng(0)
        f, g = rng.normal(size=10), rng.normal(size=10)
        oracle = f @ np.diag(qop.mu.weights) @ (np.eye(10) - env.gamma * env.trans) @ g
        assert q_inner(qop, f, g) == pytest.approx(oracle, abs=1e-12)

    def test_symmetry(self):
        qop = QOperator(make_circular_walk(10, 0.9, 2))
        rng = np.random.default_rng(1)
        f, g = rng.normal(size=10), rng.normal(size=10)
        assert q_inner(qop, f, g) == pytest.approx(q_inner(qop, g, f), abs=1e-10)

    def test_rejects_non_reversible(self):
        qop = QOperator(make_random_tabular(6, 0.9, 0))
        with pytest.raises(ValueError):
            q_inner(qop, np.ones(6), np.ones(6))

    def test_sandwich(self):
        env = make_circular_walk(10, 0.9, 3)
        qop = QOperator(env)
        rng = np.random.default_rng(2)
        for _ in range(20):
            f = rng.normal(size=10)
            sq = mu_norm(f, qop.mu) ** 2
            val = q_inner(qop, f, f)
            assert (1 - env.gamma) * sq - 1e-10 <= val <= (1 + env.gamma) * sq + 1e-10


class TestKrylovBasis:
    def test_depth_one_is_normalized_reward(self):
        env = make_circular_walk(10, 0.9, 4)
        qop = QOperator(env)
        basis = krylov_basis(qop, 1)
        assert len(basis) == 1
        vec = basis[0].values
        expected = env.reward / mu_norm(env.reward, qop.mu)
        assert np.abs(vec - expected).max() <= 1e-12

    def test_constant_reward_saturates_at_depth_one(self):
        base = make_circular_walk(8, 0.9, 0)
        env = TabularModel(trans=base.trans, reward=np.full(8, 3.0), gamma=0.9)
        qop = QOperator(env)
        basis = krylov_basis(qop, 5)
        assert len(basis) == 1

    def test_orthonormality(self):
        env = make_circular_walk(20, 0.9, 5)
        qop = QOperator(env)
        basis = krylov_basis(qop, 8)
        phi = basis.evaluate(np.arange(20))
        gram = phi.T @ np.diag(qop.mu.weights) @ phi
        assert np.abs(gram - np.eye(8)).max() <= 1e-10

    def test_full_depth_spans_space(self):
        env = make_circular_walk(20, 0.9, 6)
        qop = QOperator(env)
        basis = krylov_basis(qop, 20)
        phi = basis.evaluate(np.arange(20))
        if phi.shape[1] == 20:
            w = np.sqrt(qop.mu.weights)[:, None]
            q_w = w * phi
            proj = q_w @ q_w.T
            assert np.abs(proj - np.eye(20)).max() <= 1e-8


class TestKrylovProjection:
    def test_full_space_recovers_solution(self):
        env = make_circular_walk(12, 0.9, 7)
        qop = QOperator(env)
        x = krylov_projection_solution(qop, 12)
        assert np.abs(x - solve_exact(env)).max() <= 1e-9

    def test_constant_reward_exact_at_depth_one(self):
        base = make_circular_walk(8, 0.9, 0)
        env = TabularModel(trans=base.trans, reward=np.full(8, 2.0), gamma=0.9)
        qop = QOperator(env)
        x = krylov_projection_solution(qop, 1)
        assert np.abs(x - solve_exact(env)).max() <= 1e-9

    def test_matches_oracle_iterates(self):
        env = make_circular_walk(20, 0.9, 8)
        qop = QOperator(env)
        trace = []
        oracle_kbb(env, 10, _trace=trace)
        for t in (1, 2, 5, 8, 10):
            v_t = trace[t][0]
            x_t = krylov_projection_solution(qop, t)
            assert np.abs(v_t - x_t).max() <= 1e-8


class TestRestrictedSpectralValues:
    def test_empty_basis_sandwich(self):
        env = make_circular_walk(16, 0.9, 9)
        qop = QOperator(env)
        pair = restricted_spectral_values(qop, BasisSet([]))
        assert 1 - 0.9 - 1e-9 <= pair.mineig <= pair.maxeig <= 1 + 0.9 + 1e-9

    def test_two_state_hand_example(self):
        qop = QOperator(symmetric_chain(2))
        pair = restricted_spectral_values(qop, BasisSet([TableValueFn([1.0, 1.0])]))
        assert pair.mineig == pytest.approx(1.0, abs=1e-10)
        assert pair.maxeig == pytest.approx(1.0, abs=1e-10)

    def test_mineig_monotone_in_depth(self):
        env = make_circular_walk(50, 0.9, 10)
        qop = QOperator(env)
        full = krylov_basis(qop, 12)
        mins = []
        for t in range(0, 13):
            pair = restricted_spectral_values(qop, BasisSet(list(full)[:t]))
            mins.append(pair.mineig)
        assert all(mins[i + 1] >= mins[i] - 1e-10 for i in range(len(mins) - 1))

    def test_dense_generalized_eig_oracle(self):
        # oracle: extremize ||z||_mu^2 over <z, Qinv z>_mu = 1 via the pencil
        # on the raw complement, assembled independently with a QR factor
        env = make_circular_walk(12, 0.9, 11)
        qop = QOperator(env)
        basis = krylov_basis(qop, 3)
        phi = basis.evaluate(np.arange(12))
        w = np.sqrt(qop.mu.weights)
        q_full, _ = np.linalg.qr(np.column_stack([w[:, None] * phi, np.eye(12)]))
        comp = (q_full[:, 3:] / w[:, None])
        d = np.diag(qop.mu.weights)
        c = comp.T @ d @ comp
        c_q = comp.T @ d @ qop.q_inv @ comp
        import scipy.linalg

        eigs = scipy.linalg.eigh(0.5 * (c + c.T), 0.5 * (c_q + c_q.T), eigvals_only=True)
        pair = restricted_spectral_values(qop, basis)
        assert pair.mineig == pytest.approx(eigs.min(), abs=1e-9)
        assert pair.maxeig == pytest.approx(eigs.max(), abs=1e-9)

    def test_degenerate_complement_rejected(self):
        qop = QOperator(symmetric_chain(2))
        full = BasisSet([TableValueFn([1.0, 0.0]), TableValueFn([0.0, 1.0])])
        with pytest.raises(ValueError):
            restricted_spectral_values(qop, full)

    def test_requires_reversible(self):
        qop = QOperator(make_random_tabular(6, 0.9, 1))
        with pytest.raises(ValueError):
            restricted_spectral_values(qop, BasisSet([]))


class TestOracleKbb:
    def test_finite_termination(self):
        env = make_circular_walk(50, 0.9, 12)
        rec = oracle_kbb(env, 50)
        assert (rec.errors <= 1e-8 * rec.initial_error).any()

    def test_errors_non_increasing(self):
        env = make_circular_walk(30, 0.9, 13)
        rec = oracle_kbb(env, 25)
        errs = np.concatenate([[rec.initial_error], rec.errors])
        assert np.all(np.diff(errs) <= 1e-9 * rec.initial_error)

    def test_constant_reward_one_iteration(self):
        base = make_circular_walk(8, 0.9, 0)
        env = TabularModel(trans=base.trans, reward=np.full(8, 1.5), gamma=0.9)
        rec = oracle_kbb(env, 3)
        assert rec.errors[0] <= 1e-10 * rec.initial_error

    def test_runs_on_non_reversible_models(self):
        env = make_random_tabular(20, 0.9, 14)
        rec = oracle_kbb(env, 20)
        assert rec.errors[-1] <= 1e-6 * rec.initial_error

    def test_guard_rejections_at_the_floor(self):
        # once the exact loop terminates, residuals vanish and the guard
        # rejects them; rows keep appearing and the error stays at the floor
        env = make_circular_walk(10, 0.9, 17)
        rec = oracle_kbb(env, 30)
        assert rec.meta["rejected_iters"], "expected rejections after exact termination"
        first_rejection = rec.meta["rejected_iters"][0]
        assert len(rec.rows) == 30
        floor = rec.errors[first_rejection - 1]
        assert np.all(rec.errors[first_rejection - 1 :] <= max(floor, 1e-9 * rec.initial_error))


class TestTheoremRate:
    def test_observed_within_bound(self):
        env = make_circular_walk(30, 0.9, 15)
        rows = check_theorem1_rate(env, 30)
        assert rows, "expected at least one certified iteration"
        for _, bound, observed in rows:
            assert observed <= bound + 1e-8

    def test_bounds_below_worst_case(self):
        env = make_circular_walk(30, 0.9, 15)
        rows = check_theorem1_rate(env, 20)
        worst = 1 - (1 - env.gamma) ** 2 / (8 * (1 + env.gamma))
        assert all(bound <= worst + 1e-12 for _, bound, _ in rows)

    def test_rejects_non_reversible(self):
        with pytest.raises(ValueError):
            check_theorem1_rate(make_random_tabular(8, 0.9, 0), 5)


class TestSpectraTable:
    def test_rows_and_sandwich(self):
        env = make_circular_walk(20, 0.9, 16)
        rows = spectra_table(env, 8)
        assert [r[0] for r in rows] == list(range(9))
        for _, lo, hi, bound in rows:
            assert 1 - 0.9 - 1e-9 <= lo <= hi <= 1 + 0.9 + 1e-9
            assert bound == pytest.approx(1 - lo**2 / (8 * hi), abs=1e-12)

    def test_rows_past_saturation_reuse_one_solve(self, monkeypatch):
        import kbb.diagnostics as diagnostics

        env = make_circular_walk(20, 0.9, 16)
        qop = QOperator(env)
        full = krylov_basis(qop, 19)
        assert len(full) < 19  # the walk's Krylov space saturates early
        calls = []

        def counting(qop, basis):
            calls.append(len(basis))
            return restricted_spectral_values(qop, basis)

        monkeypatch.setattr(diagnostics, "restricted_spectral_values", counting)
        rows = spectra_table(env, 2000)
        assert calls == list(range(len(full) + 1))
        assert [r[0] for r in rows] == list(range(2001))
        pair = restricted_spectral_values(qop, full)
        for t, lo, hi, bound in rows[len(full):]:
            assert (lo, hi, bound) == (pair.mineig, pair.maxeig, theorem_bound(pair))

    def test_depth_zero_row_is_empty_basis(self):
        env = make_circular_walk(20, 0.9, 16)
        qop = QOperator(env)
        pair = restricted_spectral_values(qop, BasisSet([]))
        rows = spectra_table(env, 3)
        assert rows[0][1] == pytest.approx(pair.mineig, abs=1e-12)
        assert rows[0][2] == pytest.approx(pair.maxeig, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_q_sandwich_property(seed):
    env = make_circular_walk(10, 0.9, seed % 23)
    qop = QOperator(env)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=10)
    sq = mu_norm(f, qop.mu) ** 2
    val = q_inner(qop, f, f)
    assert (1 - env.gamma) * sq - 1e-10 <= val <= (1 + env.gamma) * sq + 1e-10


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_self_adjoint_property(seed):
    env = make_circular_walk(12, 0.9, seed % 19)
    qop = QOperator(env)
    rng = np.random.default_rng(seed)
    f, g = rng.normal(size=12), rng.normal(size=12)
    assert abs(q_inner(qop, f, g) - q_inner(qop, g, f)) <= 1e-10
