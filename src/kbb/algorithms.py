"""The three evaluation algorithms: exact VI, fitted VI, and Krylov-Bellman
boosting, plus error measurement against ground truth.

All three start from the zero value function so their iteration-0 error is
identical, and all randomness is derived from explicit seeds so a run is
reproducible bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from . import envs
# sample_transitions stays bound here, unused, because perfbench/spans.py
# wraps it by name in every module that imports it.
from .envs import sample_transitions  # noqa: F401
from .lstd import (
    DUPLICATE_CORRELATION,
    MIN_BASIS_NORM,
    BasisSet,
    lstd_system,
    solve_linear_system,
    span_correlation,
)
# stationary_distribution stays bound here, unused, because perfbench/spans.py
# wraps it by name in every module that imports it.
from .mrp import TabularModel, mu_norm, solve_exact, stationary_distribution  # noqa: F401
from .records import RunRecord
from .regression import RegressorConfig, backup_targets, fit
from .values import ConstantValueFn, ScaledValueFn, TableValueFn

__all__ = [
    "IterationBudget",
    "ErrorEvaluator",
    "run_vi",
    "run_fvi",
    "run_kbb",
    "oracle_kbb",
    "derive_seed",
]

from dataclasses import dataclass


@dataclass(frozen=True)
class IterationBudget:
    """Per-iteration sample counts for the sampled algorithms.

    The first iteration draws ``first_iter_multiplier`` times more samples;
    an accurate first fit (which estimates the reward) noticeably improves
    the whole run.  With ``shared_data`` the LSTD step reuses the regression
    dataset; otherwise an independent dataset of equal size is drawn.
    ``max_iters`` must be given.
    """

    n_per_iter: int = 10_000
    max_iters: int | None = None
    first_iter_multiplier: int = 4
    shared_data: bool = True

    def __post_init__(self):
        if self.max_iters is None:
            raise TypeError("IterationBudget needs max_iters")
        if self.n_per_iter < 1 or self.max_iters < 1 or self.first_iter_multiplier < 1:
            raise ValueError("budget fields must be positive")

    def n_at(self, t: int) -> int:
        return self.n_per_iter * (self.first_iter_multiplier if t == 0 else 1)


def derive_seed(seed: int, *path: int) -> int:
    """Stable 64-bit child seed for a (seed, path...) combination."""
    ss = np.random.SeedSequence([int(seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, np.uint64)[0])


_REG_STREAM, _LSTD_STREAM, _FIT_STREAM = 0, 1, 2


def _draws(env, budget: IterationBudget, seed: int, streams: tuple):
    """The run's datasets in the order its iterations take them: per
    iteration t, one draw of ``budget.n_at(t)`` transitions per stream."""
    return envs.transition_draws(env, [(budget.n_at(t), derive_seed(seed, t, stream))
                                       for t in range(budget.max_iters) for stream in streams])


class ErrorEvaluator:
    """Measures the mu-weighted distance of a value function to ground truth.

    Tabular models are evaluated exactly under the stationary distribution.
    Continuous models use a Monte Carlo estimate over stationary draws with
    a fixed seed, so every algorithm in a comparison is scored on the same
    evaluation states.
    """

    def __init__(self, env, truth, n_eval: int = 10_000, seed: int = 0):
        self.env = env
        self.truth = truth
        if isinstance(env, TabularModel):
            self.mu = envs.stationary_law(env)
            self.states = np.arange(env.n_states)
        else:
            self.mu = None
            self.states = envs.stationary_states(env, n_eval, seed)
        self.truth_values = truth(self.states)

    def error_of_values(self, values: np.ndarray) -> float:
        diff = values - self.truth_values
        if self.mu is not None:
            return mu_norm(diff, self.mu)
        return float(np.sqrt(np.mean(diff**2)))

    def __call__(self, v) -> float:
        return self.error_of_values(v(self.states))


# ---------------------------------------------------------------------------
# Exact value iteration
# ---------------------------------------------------------------------------


def _start_run(algo: str, env, truth, n_eval: int, eval_seed: int, config_hash: str, seeds: list,
               **meta):
    """Error evaluator and empty record of a run, scored from the zero function."""
    if truth is None:
        truth = envs.true_value(env)
    evaluator = ErrorEvaluator(env, truth, n_eval=n_eval, seed=eval_seed)
    record = RunRecord(
        algo=algo,
        initial_error=evaluator(ConstantValueFn(0.0)),
        config_hash=config_hash,
        seeds=seeds,
        meta={"env": envs.env_params(env), **meta, "eval": {"n_eval": n_eval, "seed": eval_seed}},
    )
    return evaluator, record


def run_vi(env, max_iters: int, truth=None, n_eval: int = 10_000, eval_seed: int = 0,
           config_hash: str = "") -> RunRecord:
    """Exact value iteration from the zero function, scored at each iterate
    of ``envs.vi_iterates``.  VI consumes no samples."""
    evaluator, record = _start_run("vi", env, truth, n_eval, eval_seed, config_hash, [])
    for t, v in zip(range(1, max_iters + 1), envs.vi_iterates(env)):
        t0 = time.perf_counter()
        err = evaluator(v)
        wall = (time.perf_counter() - t0) * 1e3
        record.add_row(iter=t, cum_samples=0, mu_error=err, ridge_used=0.0, wall_ms=wall)
    return record


# ---------------------------------------------------------------------------
# Fitted value iteration
# ---------------------------------------------------------------------------


def run_fvi(env, regressor_config: RegressorConfig, budget: IterationBudget, truth=None,
            seed: int = 0, n_eval: int = 10_000, eval_seed: int = 0,
            config_hash: str = "") -> RunRecord:
    """Fitted value iteration: regress the sampled backup r + gamma v(x')."""
    evaluator, record = _start_run("fvi", env, truth, n_eval, eval_seed, config_hash, [seed],
                                   budget=budget.__dict__, regressor=regressor_config.__dict__)
    draws = _draws(env, budget, seed, (_REG_STREAM,))
    v = ConstantValueFn(0.0)
    cum = 0
    for t in range(budget.max_iters):
        t0 = time.perf_counter()
        data = next(draws)
        cum += len(data)
        targets = backup_targets(v, data, env.gamma)
        v = fit((data.states, targets), regressor_config, derive_seed(seed, t, _FIT_STREAM))
        err = evaluator(v)
        wall = (time.perf_counter() - t0) * 1e3
        record.add_row(iter=t + 1, cum_samples=cum, mu_error=err, ridge_used=0.0, wall_ms=wall)
    return record


# ---------------------------------------------------------------------------
# Krylov-Bellman boosting
# ---------------------------------------------------------------------------


def _norm(col: np.ndarray, weights) -> float:
    """RMS of a column under the sample mean, or its norm under ``weights``."""
    if weights is None:
        return float(np.sqrt(np.mean(col**2)))
    return float(np.sqrt(np.sum(weights * col * col)))


def _kbb_loop(record: RunRecord, max_iters: int, gamma: float, draw, regress, eval_states, error_of,
              lstd_draw=None, weights=None, trace: list | None = None) -> RunRecord:
    """The Krylov-Bellman boosting iteration, for sampled and exact runs alike.

    ``draw(t)`` gives (states, rewards, next_features, samples drawn), with
    ``next_features(basis)`` the basis's expected next-state values per row;
    LSTD reuses it unless ``lstd_draw`` gives an independent draw.
    ``regress(t, states, targets)`` fits the Bellman residual.  ``weights``
    (None: sample mean) define the inner product of the guard and of LSTD.
    Accepted fits enter the basis at unit norm (LSTD coefficients absorb the
    scale); a vanishing or near-duplicate fit is rejected, the basis stays,
    LSTD is still re-solved and the iteration joins ``rejected_iters``.
    ``trace`` collects (values on ``eval_states``, basis size) per iterate.
    """
    basis = BasisSet()
    coeffs = np.zeros(0)
    eval_phi = basis.evaluate(eval_states)
    rejected: list[int] = []
    cum, ridge = 0, 0.0
    if trace is not None:
        trace.append((eval_phi @ coeffs, 0))
    for t in range(max_iters):
        t0 = time.perf_counter()
        states, rewards, next_features, n_drawn = draw(t)
        cum += n_drawn
        phi = basis.evaluate(states)
        phi_next = next_features(basis)
        # Residual targets of the current iterate v_t = basis @ coeffs.
        targets = phi @ coeffs - (rewards + gamma * (phi_next @ coeffs))
        new_fn = regress(t, states, targets)
        new_col = new_fn(states)
        nrm = _norm(new_col, weights)
        if nrm >= MIN_BASIS_NORM and span_correlation(phi, new_col, weights) <= DUPLICATE_CORRELATION:
            scaled = ScaledValueFn(new_fn, 1.0 / nrm)
            basis.append(scaled)
            phi = np.column_stack([phi, new_col / nrm])
            phi_next = np.column_stack([phi_next, next_features(BasisSet([new_fn])) / nrm])
            eval_phi = np.column_stack([eval_phi, scaled(eval_states)])
        else:
            rejected.append(t + 1)
        if lstd_draw is not None:
            states, rewards, next_features, n_drawn = lstd_draw(t)
            cum += n_drawn
            phi, phi_next = basis.evaluate(states), next_features(basis)
        if len(basis) > 0:
            sol = solve_linear_system(*lstd_system(phi, phi_next, rewards, gamma, weights))
            coeffs, ridge = sol.coeffs, sol.ridge_used
        values = eval_phi @ coeffs
        if trace is not None:
            trace.append((values, len(basis)))
        err = error_of(values)
        wall = (time.perf_counter() - t0) * 1e3
        record.add_row(iter=t + 1, cum_samples=cum, mu_error=err, ridge_used=ridge, wall_ms=wall)
    record.meta["rejected_iters"] = rejected
    return record


def run_kbb(env, regressor_config: RegressorConfig, budget: IterationBudget, truth=None,
            seed: int = 0, n_eval: int = 10_000, eval_seed: int = 0,
            config_hash: str = "") -> RunRecord:
    """Krylov-Bellman boosting on sampled transitions.

    Each iteration fits the sampled Bellman residual of the current iterate,
    appends the fit to the basis (after a degeneracy guard), re-solves the
    empirical LSTD system over the grown basis, and takes the LSTD
    combination as the next iterate (see ``_kbb_loop``).
    """
    evaluator, record = _start_run("kbb", env, truth, n_eval, eval_seed, config_hash, [seed],
                                   budget=budget.__dict__, regressor=regressor_config.__dict__)

    # With separate LSTD data, each iteration's REG draw is followed by its LSTD draw.
    draws = _draws(env, budget, seed, (_REG_STREAM,) if budget.shared_data else (_REG_STREAM, _LSTD_STREAM))

    def draw(t):
        data = next(draws)
        return data.states, data.rewards, lambda basis: basis.evaluate(data.next_states), len(data)

    def regress(t, states, targets):
        return fit((states, targets), regressor_config, derive_seed(seed, t, _FIT_STREAM))

    return _kbb_loop(record, budget.max_iters, env.gamma, draw, regress,
                     evaluator.states, evaluator.error_of_values,
                     lstd_draw=None if budget.shared_data else draw)


def oracle_kbb(model: TabularModel, max_iters: int, _trace: list | None = None) -> RunRecord:
    """Noise-free run of the KBB loop: exact residuals and population LSTD.

    Every state is drawn once with its stationary weight and the next-state
    features are exact expectations P phi, so the residual "fit" is the
    exact Bellman residual and LSTD is the mu-weighted population system.
    ``_trace`` collects (iterate, basis size) from the zero start on.
    """
    mu = envs.stationary_law(model)
    v_star = solve_exact(model)
    record = RunRecord(
        algo="kbb",
        initial_error=mu_norm(v_star, mu),
        seeds=[],
        meta={"oracle": True, "env": envs.env_params(model)},
    )
    states = np.arange(model.n_states)

    def draw(t):
        return states, model.reward, lambda basis: model.trans @ basis.evaluate(states), 0

    return _kbb_loop(record, max_iters, model.gamma, draw, lambda t, s, targets: TableValueFn(targets),
                     states, lambda values: mu_norm(values - v_star, mu), weights=mu.weights, trace=_trace)
