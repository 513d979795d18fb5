"""Least-squares temporal difference solver over an arbitrary basis set.

The empirical system is

    A = (1/N) sum_i phi(x_i) (phi(x_i) - gamma phi(x'_i))^T
    b = (1/N) sum_i r_i phi(x_i)

and the population version replaces the sample averages with exact
expectations under (P, r, mu) for tabular models.  Ill-conditioned systems
fall back to an escalating ridge, which is reported in the solution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mrp import Distribution, TabularModel

__all__ = [
    "BasisSet",
    "LstdSolution",
    "lstd_system",
    "lstd_solve_population",
    "solve_linear_system",
    "span_correlation",
    "COND_THRESHOLD",
    "RIDGE_START_FACTOR",
    "RIDGE_MAX_FACTOR",
    "DUPLICATE_CORRELATION",
    "MIN_BASIS_NORM",
]

COND_THRESHOLD = 1e12
RIDGE_START_FACTOR = 1e-8
RIDGE_MAX_FACTOR = 1e-2
DUPLICATE_CORRELATION = 1.0 - 1e-10
MIN_BASIS_NORM = 1e-10


class BasisSet:
    """Ordered collection of evaluable basis functions."""

    def __init__(self, funcs=()):
        self.funcs = list(funcs)

    def __len__(self) -> int:
        return len(self.funcs)

    def __iter__(self):
        return iter(self.funcs)

    def __getitem__(self, j):
        return self.funcs[j]

    def append(self, fn):
        self.funcs.append(fn)

    def evaluate(self, states) -> np.ndarray:
        """Feature matrix with one column per basis function."""
        states = np.asarray(states)
        n = states.shape[0]
        out = np.empty((n, len(self.funcs)))
        for j, fn in enumerate(self.funcs):
            out[:, j] = fn(states)
        return out


@dataclass(frozen=True)
class LstdSolution:
    coeffs: np.ndarray
    cond_estimate: float
    ridge_used: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=np.float64).reshape(-1))
        if not np.isfinite(self.coeffs).all():
            raise ValueError("LSTD coefficients must be finite")


def _condition_estimate(a: np.ndarray, lu) -> float:
    """1-norm condition estimate from the LU factorization."""
    anorm = np.abs(a).sum(axis=0).max()
    rcond, _ = scipy.linalg.lapack.dgecon(lu, anorm, norm="1")
    if rcond <= 0.0:
        return np.inf
    return 1.0 / rcond


def solve_linear_system(a: np.ndarray, b: np.ndarray) -> LstdSolution:
    """Solve a x = b with the ridge fallback policy.

    A condition estimate above COND_THRESHOLD (or a non-finite solve)
    triggers a retry on a + lambda I with lambda starting at
    RIDGE_START_FACTOR * trace(a)/dim and escalating tenfold up to
    RIDGE_MAX_FACTOR * trace(a)/dim before failing hard.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    dim = a.shape[0]
    if dim == 0:
        raise ValueError("cannot solve an empty system")
    cond = np.inf
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(a)
        cond = _condition_estimate(a, lu)
        if cond <= COND_THRESHOLD:
            x = scipy.linalg.lu_solve((lu, piv), b)
            if np.isfinite(x).all():
                return LstdSolution(x, cond_estimate=cond, ridge_used=0.0)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError):
        pass
    base = abs(float(np.trace(a))) / dim
    if base <= 0.0 or not np.isfinite(base):
        base = 1.0
    lam = RIDGE_START_FACTOR * base
    lam_max = RIDGE_MAX_FACTOR * base
    while lam <= lam_max * (1.0 + 1e-12):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                x = scipy.linalg.solve(a + lam * np.eye(dim), b)
            if np.isfinite(x).all():
                return LstdSolution(x, cond_estimate=cond, ridge_used=lam)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError):
            pass
        lam *= 10.0
    raise RuntimeError("LSTD system unsolvable even with maximum ridge")


def lstd_system(phi: np.ndarray, phi_next: np.ndarray, rewards: np.ndarray, gamma: float,
                weights=None):
    """LSTD system (A, b) from features at states and at expected next states.

    Rows are averaged (samples) or weighted by ``weights`` (population).  A
    fixed matrix product over the rows makes the result deterministic.
    """
    lhs = phi.T if weights is None else (weights[:, None] * phi).T
    a = lhs @ (phi - gamma * phi_next)
    b = lhs @ rewards
    if weights is None:
        n = float(phi.shape[0])
        a, b = a / n, b / n
    return a, b


def lstd_solve_population(basis: BasisSet, model: TabularModel, mu: Distribution) -> LstdSolution:
    """Population LSTD: expectations computed exactly from (P, r, mu)."""
    phi = basis.evaluate(np.arange(model.n_states))
    return solve_linear_system(*lstd_system(phi, model.trans @ phi, model.reward, model.gamma, mu.weights))


def span_correlation(phi_matrix: np.ndarray, new_col: np.ndarray, weights=None) -> float:
    """Cosine of the angle between a new function and the span of existing ones.

    Columns of ``phi_matrix`` are basis evaluations; ``weights`` (optional)
    define the inner product.  Returns 0 for an empty basis.
    """
    new_col = np.asarray(new_col, dtype=np.float64).reshape(-1)
    if phi_matrix is None or phi_matrix.size == 0:
        return 0.0
    if weights is not None:
        w = np.sqrt(np.asarray(weights, dtype=np.float64)).reshape(-1, 1)
        phi_matrix = phi_matrix * w
        new_col = new_col * w[:, 0]
    norm = np.linalg.norm(new_col)
    if norm == 0.0:
        return 1.0
    q, _ = np.linalg.qr(phi_matrix)
    proj = q.T @ new_col
    return float(min(1.0, np.linalg.norm(proj) / norm))
