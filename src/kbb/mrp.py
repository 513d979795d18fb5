"""Tabular Markov reward processes: exact Bellman operations and solves.

Everything in this module is dense and exact (up to floating point); these
routines are the arithmetic backbone that the sampled algorithms and the
diagnostics are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TabularModel",
    "Distribution",
    "bellman_apply",
    "bellman_residual",
    "solve_exact",
    "stationary_distribution",
    "mu_norm",
    "mu_dot",
    "is_reversible",
]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class TabularModel:
    """Finite MRP: row-stochastic transitions, per-state rewards, discount.

    Rows of ``trans`` must sum to 1 within 1e-12 with nonnegative entries,
    and the discount must lie strictly inside (0, 1).
    """

    trans: np.ndarray
    reward: np.ndarray
    gamma: float

    def __post_init__(self):
        trans = np.asarray(self.trans, dtype=np.float64)
        reward = np.asarray(self.reward, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "trans", trans)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "gamma", float(self.gamma))
        if trans.ndim != 2 or trans.shape[0] != trans.shape[1]:
            raise ValueError("trans must be a square matrix")
        if reward.shape[0] != trans.shape[0]:
            raise ValueError(
                f"reward length {reward.shape[0]} != n_states {trans.shape[0]}"
            )
        if trans.min() < 0.0:
            raise ValueError("transition probabilities must be nonnegative")
        row_err = np.abs(trans.sum(axis=1) - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"rows of trans must sum to 1 (max deviation {row_err:.3e})")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")

    @property
    def n_states(self) -> int:
        return self.trans.shape[0]


@dataclass(frozen=True)
class Distribution:
    """Probability weights over a finite state space."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "weights", w)
        if w.min() < 0.0:
            raise ValueError("distribution weights must be nonnegative")
        if abs(w.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"distribution weights must sum to 1, got {w.sum():.15f}")

    @property
    def n_states(self) -> int:
        return self.weights.shape[0]


def _check_length(v: np.ndarray, n: int, what: str):
    if v.shape[0] != n:
        raise ValueError(f"{what} has length {v.shape[0]}, expected {n}")


def bellman_apply(model: TabularModel, v) -> np.ndarray:
    """One exact Bellman backup: r + gamma * P v."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    _check_length(v, model.n_states, "value vector")
    return model.reward + model.gamma * (model.trans @ v)


def bellman_residual(model: TabularModel, v) -> np.ndarray:
    """v - (r + gamma * P v), the exact Bellman residual of v."""
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    return v - bellman_apply(model, v)


def solve_exact(model: TabularModel) -> np.ndarray:
    """Solve (I - gamma * P) v = r directly.

    Dense LU solve; the system is nonsingular for any row-stochastic P and
    gamma < 1.  The residual is verified before returning.
    """
    n = model.n_states
    a = np.eye(n) - model.gamma * model.trans
    v = np.linalg.solve(a, model.reward)
    scale = max(np.abs(model.reward).max(), 1e-300)
    resid = np.abs(a @ v - model.reward).max()
    if resid > 1e-10 * scale:
        raise RuntimeError(f"exact solve residual {resid:.3e} exceeds tolerance")
    return v


# Power-iteration start: uniform plus an alternating perturbation.  The
# alternating component projects onto the fast (high-frequency) modes of the
# smooth chains used here, so convergence stays quick, while a period-2 chain
# oscillates forever and is reported as non-convergent instead of being
# silently accepted.
def _power_start(n: int) -> np.ndarray:
    x = 1.0 + 0.5 * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    return x / x.sum()


def _bfs_levels(edges: np.ndarray, start: int) -> np.ndarray:
    """Breadth-first levels from ``start`` along edges u -> v where ``edges[u, v]``; -1 if unreached."""
    level = np.full(edges.shape[0], -1, dtype=np.int64)
    level[start] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = edges[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    return level


def _irreducible_aperiodic(trans: np.ndarray) -> bool:
    """Graph test: state 0 reaches every state and every state reaches state
    0, and the period, the gcd of level[u] + 1 - level[v] over all edges
    u -> v of the search from state 0, is 1."""
    edges = trans > 0
    level = _bfs_levels(edges, 0)
    if level.min() < 0 or _bfs_levels(edges.T, 0).min() < 0:
        return False
    u, v = np.nonzero(edges)
    return int(np.gcd.reduce(level[u] + 1 - level[v])) == 1


def stationary_distribution(
    model: TabularModel, tol: float = 1e-12, max_iters: int | None = None
) -> Distribution:
    """Stationary distribution of the chain by power iteration.

    A settled iteration is accepted only when every state can reach the
    state it weights most, so the chain has one closed class and one
    stationary law; with several closed classes the iteration settles on
    its start vector's split between them, and RuntimeError is raised.
    When the iteration has not settled after the cap (default 100 *
    n_states, with a floor of 5000 so small slow-mixing chains get enough
    steps), an irreducible aperiodic chain is only mixing slowly and is
    solved directly: (P^T - I) x = 0 with one equation replaced by
    sum(x) = 1.  Any other chain is reducible or periodic, and RuntimeError
    is raised.
    """
    n = model.n_states
    if max_iters is None:
        max_iters = max(100 * n, 5000)
    x = _power_start(n)
    for _ in range(max_iters):
        x_next = x @ model.trans
        s = x_next.sum()
        if s <= 0:
            raise RuntimeError("power iteration produced a non-positive vector")
        x_next = x_next / s
        if np.abs(x_next - x).sum() <= tol:
            x = x_next
            if _bfs_levels((model.trans > 0).T, int(np.argmax(x))).min() < 0:
                raise RuntimeError("the chain is reducible with more than one closed class; "
                                   "its stationary distribution is not unique")
            break
        x = x_next
    else:
        if not _irreducible_aperiodic(model.trans):
            raise RuntimeError(
                f"stationary distribution did not converge in {max_iters} iterations; "
                "the chain is reducible or periodic"
            )
        a = model.trans.T - np.eye(n)
        a[-1] = 1.0
        x = np.linalg.solve(a, np.eye(n)[-1])
    resid = np.abs(x @ model.trans - x).sum()
    if resid > 1e-10:
        raise RuntimeError(f"stationary residual {resid:.3e} exceeds 1e-10")
    x = np.maximum(x, 0.0)
    return Distribution(x / x.sum())


def mu_dot(f, g, mu: Distribution) -> float:
    """Weighted inner product sum_i mu_i f_i g_i."""
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    _check_length(f, mu.n_states, "f")
    _check_length(g, mu.n_states, "g")
    return float(np.sum(mu.weights * f * g))


def mu_norm(f, mu: Distribution) -> float:
    """Weighted L2 norm sqrt(sum_i mu_i f_i^2)."""
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    _check_length(f, mu.n_states, "f")
    return float(np.sqrt(np.sum(mu.weights * f * f)))


def is_reversible(model: TabularModel, mu: Distribution, tol: float = 1e-10) -> bool:
    """Detailed-balance check: mu_i P_ij == mu_j P_ji within tol."""
    flow = mu.weights[:, None] * model.trans
    return bool(np.abs(flow - flow.T).max() <= tol)
