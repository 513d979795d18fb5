"""Exact tabular oracles for the structural invariants of the method.

Everything here works on dense tabular models: the discount operator
Q = I - gamma P together with its mu-weighted inner product, orthonormal
Krylov bases of span{r, Qr, Q^2 r, ...}, the spectral values of Q restricted
to the orthogonal complement of a subspace, and the per-iteration
contraction certificate of the noise-free boosted loop (``oracle_kbb``, which
runs the KBB iteration of ``algorithms`` and is re-exported here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .algorithms import oracle_kbb
from .lstd import BasisSet
from .mrp import (
    Distribution,
    TabularModel,
    is_reversible,
    mu_dot,
    mu_norm,
    solve_exact,
    stationary_distribution,
)
from .values import TableValueFn

__all__ = [
    "QOperator",
    "SpectralPair",
    "q_inner",
    "krylov_basis",
    "krylov_projection_solution",
    "restricted_spectral_values",
    "theorem_bound",
    "oracle_kbb",
    "check_theorem1_rate",
    "spectra_table",
]

SATURATION_RTOL = 1e-10


class QOperator:
    """Dense discount operator Q = I - gamma P with its inverse and weights.

    Under reversibility Q is self-adjoint in the mu-weighted inner product,
    which is what the Q-norm computations here rely on; the flag is checked
    at construction.
    """

    def __init__(self, model: TabularModel, mu: Distribution | None = None):
        self.model = model
        self.mu = mu if mu is not None else stationary_distribution(model)
        n = model.n_states
        self.q_mat = np.eye(n) - model.gamma * model.trans
        self.q_inv = np.linalg.solve(self.q_mat, np.eye(n))
        inv_err = np.abs(self.q_mat @ self.q_inv - np.eye(n)).max()
        if inv_err > 1e-9:
            raise RuntimeError(f"Q inverse residual {inv_err:.3e} exceeds 1e-9")
        self.reversible = is_reversible(model, self.mu)

    @property
    def n_states(self) -> int:
        return self.model.n_states

    @property
    def gamma(self) -> float:
        return self.model.gamma

    def require_reversible(self):
        if not self.reversible:
            raise ValueError("operation requires a reversible chain")


@dataclass(frozen=True)
class SpectralPair:
    """Extreme restricted spectral values (smallest, largest)."""

    mineig: float
    maxeig: float

    def __post_init__(self):
        if not self.mineig <= self.maxeig:
            raise ValueError("mineig must not exceed maxeig")


def q_inner(qop: QOperator, f, g) -> float:
    """Inner product <f, Q g> under the stationary weights (reversible only)."""
    qop.require_reversible()
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    g = np.asarray(g, dtype=np.float64).reshape(-1)
    return mu_dot(f, qop.q_mat @ g, qop.mu)


def krylov_basis(qop: QOperator, depth: int) -> BasisSet:
    """mu-orthonormal basis of span{r, Qr, ..., Q^(depth-1) r}.

    Modified Gram-Schmidt with one re-orthogonalization pass; stops early
    and returns fewer vectors when the subspace saturates (new direction
    below 1e-10 of the reward's norm).
    """
    if depth > qop.n_states:
        raise ValueError("depth cannot exceed n_states")
    mu = qop.mu
    vecs: list[np.ndarray] = []
    cur = qop.model.reward.astype(np.float64).copy()
    ref_norm = mu_norm(cur, mu)
    if ref_norm == 0.0:
        return BasisSet([])
    for _ in range(depth):
        w = cur.copy()
        for _pass in range(2):
            for u in vecs:
                w -= mu_dot(w, u, mu) * u
        nrm = mu_norm(w, mu)
        if nrm < SATURATION_RTOL * ref_norm:
            break
        vecs.append(w / nrm)
        cur = qop.q_mat @ vecs[-1]
    return BasisSet([TableValueFn(v) for v in vecs])


def krylov_projection_solution(qop: QOperator, depth: int) -> np.ndarray:
    """Galerkin solution in the Krylov space: r - Q x_hat is mu-orthogonal to it."""
    basis = krylov_basis(qop, depth)
    b_mat = basis.evaluate(np.arange(qop.n_states))
    if b_mat.shape[1] == 0:
        return np.zeros(qop.n_states)
    d = qop.mu.weights[:, None]
    proj_a = b_mat.T @ (d * (qop.q_mat @ b_mat))
    proj_b = b_mat.T @ (d[:, 0] * qop.model.reward)
    try:
        coeff = np.linalg.solve(proj_a, proj_b)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("projected Krylov system is singular") from exc
    return b_mat @ coeff


def _complement_basis(qop: QOperator, basis: BasisSet) -> np.ndarray:
    """mu-orthonormal basis of the orthogonal complement of span(basis)."""
    n = qop.n_states
    w = np.sqrt(qop.mu.weights)
    if w.min() <= 0.0:
        raise ValueError("stationary distribution must have full support")
    phi = basis.evaluate(np.arange(n))
    if phi.shape[1] == 0:
        comp_w = np.eye(n)
    else:
        u, s, _ = np.linalg.svd(w[:, None] * phi, full_matrices=True)
        rank = int(np.sum(s > s[0] * max(phi.shape) * np.finfo(float).eps)) if s.size else 0
        comp_w = u[:, rank:]
    if comp_w.shape[1] == 0:
        raise ValueError("degenerate complement: basis spans the whole space")
    return comp_w / w[:, None]


def restricted_spectral_values(qop: QOperator, basis: BasisSet) -> SpectralPair:
    """Extreme values of ||z||_mu^2 over {z orthogonal to the basis, <z, Q^-1 z>_mu = 1}.

    Computed as the generalized eigenvalues of the pencil (C, C_Q), with C
    and C_Q the Gram matrices of the mu-inner product and the Q^-1 form on
    an orthonormal basis of the complement.
    """
    qop.require_reversible()
    u_comp = _complement_basis(qop, basis)
    d = qop.mu.weights[:, None]
    c = u_comp.T @ (d * u_comp)
    c_q = u_comp.T @ (d * (qop.q_inv @ u_comp))
    c = 0.5 * (c + c.T)
    c_q = 0.5 * (c_q + c_q.T)
    eigs = scipy.linalg.eigh(c, c_q, eigvals_only=True)
    pair = SpectralPair(mineig=float(eigs.min()), maxeig=float(eigs.max()))
    lo, hi = 1.0 - qop.gamma - 1e-9, 1.0 + qop.gamma + 1e-9
    if not (lo <= pair.mineig and pair.maxeig <= hi):
        raise RuntimeError(
            f"restricted spectral values ({pair.mineig:.6g}, {pair.maxeig:.6g}) "
            f"violate the sandwich bounds [{lo:.6g}, {hi:.6g}]"
        )
    return pair


def theorem_bound(pair: SpectralPair) -> float:
    """Per-iteration squared-error contraction bound 1 - mineig^2 / (8 maxeig)."""
    return 1.0 - pair.mineig**2 / (8.0 * pair.maxeig)


def check_theorem1_rate(model: TabularModel, max_iters: int) -> list[tuple[int, float, float]]:
    """Per-iteration contraction certificate for the noise-free loop.

    For each iteration t with nonnegligible error, reports
    (t, 1 - mineig_t^2/(8 maxeig_t), observed Q-norm squared-error ratio)
    where the spectral values are taken over the basis in force at t.
    Raises if any observed ratio exceeds its bound beyond 1e-8.
    """
    qop = QOperator(model)
    qop.require_reversible()
    trace: list = []
    oracle_kbb(model, max_iters, _trace=trace)
    v_star = solve_exact(model)
    # The basis in force at step t is the first k_t accepted residual
    # directions, which span the same subspace as the Krylov basis of that
    # depth: a prefix of the deepest one the run needs.
    full = list(krylov_basis(qop, max((k for _, k in trace[:-1]), default=0)))
    rows: list[tuple[int, float, float]] = []
    for t in range(len(trace) - 1):
        v_t, k_t = trace[t]
        v_next, _ = trace[t + 1]
        denom = q_inner(qop, v_t - v_star, v_t - v_star)
        if denom <= 1e-14:
            break
        numer = q_inner(qop, v_next - v_star, v_next - v_star)
        pair = restricted_spectral_values(qop, BasisSet(full[:k_t]))
        bound = theorem_bound(pair)
        observed = numer / denom
        rows.append((t, bound, observed))
        if observed > bound + 1e-8:
            raise RuntimeError(
                f"iteration {t}: observed ratio {observed:.12f} exceeds bound {bound:.12f}"
            )
    return rows


def spectra_table(model: TabularModel, max_depth: int) -> list[tuple[int, float, float, float]]:
    """Rows (t, mineig, maxeig, bound) along Krylov bases of growing depth."""
    qop = QOperator(model)
    qop.require_reversible()
    full = krylov_basis(qop, min(max_depth, qop.n_states - 1))
    rows = []
    for t in range(0, len(full) + 1):
        try:
            pair = restricted_spectral_values(qop, BasisSet(list(full)[:t]))
        except ValueError:
            return rows
        rows.append((t, pair.mineig, pair.maxeig, theorem_bound(pair)))
    # Past saturation every depth has the full basis, so the same row.
    rows.extend((t, *rows[-1][1:]) for t in range(len(full) + 1, max_depth + 1))
    return rows
