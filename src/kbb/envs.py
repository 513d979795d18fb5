"""Benchmark MRP families with samplers and closed-form ground truth.

Five families: dense random tabular chains, a circular random walk,
linear-quadratic dynamics with Gaussian noise under a fixed linear policy,
a 3-d nonlinear system that linearizes under a polynomial change of
coordinates, and an ARCH model with state-dependent noise scale.

Cost-based families report their cost as the reward signal; for policy
evaluation the sign convention is irrelevant and keeping one convention
lets every algorithm run unchanged.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mrp import Distribution, TabularModel, bellman_apply, solve_exact, stationary_distribution
from .values import QuadraticValueFn, TableValueFn

__all__ = [
    "DrawMode",
    "Dataset",
    "LqrModel",
    "ArchModel",
    "NonlinearModel",
    "make_random_tabular",
    "make_circular_walk",
    "make_lqr",
    "make_nonlinear",
    "make_arch",
    "lqr_true_value",
    "nonlinear_true_value",
    "arch_true_value",
    "true_value",
    "vi_iterates",
    "sample_transitions",
    "transition_draws",
    "stationary_states",
    "stationary_law",
    "stationary_covariance",
    "arch_contraction_factor",
    "nonlinear_to_z",
    "nonlinear_from_z",
    "simulate_nonlinear_x",
    "simulate_linear_z",
    "env_params",
]

# Fixed by design, recorded in run metadata: spectral-radius target for the
# closed-loop LQR map, noise covariance scale, ARCH rescaling budgets, and
# the ARCH trajectory sampler's burn-in/stride.
LQR_SPECTRAL_TARGET = 0.9
NOISE_SCALE = 0.1
ARCH_LIN_BUDGET = 0.5  # target ||L||_2^2
ARCH_TOTAL_BUDGET = 0.95  # ||L||_2^2 + ||Gamma||_F ||Sigma||_F stays below this
ARCH_BURN_IN = 1000
ARCH_STRIDE = 10
# Trajectory steps whose noise one standard_normal call draws.
ARCH_BLOCK = 4096


class DrawMode(enum.Enum):
    EXACT_STATIONARY = "exact_stationary"
    BURN_IN_TRAJECTORY = "burn_in_trajectory"


class Dataset:
    """Column-oriented batch of transition triples.

    ``states``/``next_states`` are either 1-d int64 index arrays (tabular)
    or 2-d float64 point arrays (continuous); both members always share kind
    and shape.  Rewards are deterministic functions of the state.
    """

    def __init__(self, states, rewards, next_states, draw_mode: DrawMode):
        states = np.asarray(states)
        next_states = np.asarray(next_states)
        rewards = np.asarray(rewards, dtype=np.float64).reshape(-1)
        if states.shape != next_states.shape or states.dtype.kind != next_states.dtype.kind:
            raise ValueError("states and next_states must have identical kind and shape")
        if states.shape[0] != rewards.shape[0]:
            raise ValueError("rewards length must match number of states")
        if states.shape[0] == 0:
            raise ValueError("dataset must be nonempty")
        self.states = states
        self.rewards = rewards
        self.next_states = next_states
        self.draw_mode = draw_mode

    def __len__(self) -> int:
        return self.states.shape[0]


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------


def _check_psd(mat: np.ndarray, name: str, tol: float = 1e-10):
    mat = np.asarray(mat, dtype=np.float64)
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > tol * scale:
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (mat + mat.T))
    if eigs.min() < -tol * scale:
        raise ValueError(f"{name} must be positive semidefinite (min eig {eigs.min():.3e})")


@dataclass(frozen=True)
class LqrModel:
    """Linear dynamics x' = (A + B K) x + W under a fixed linear policy.

    The per-step cost x'(Q + K'RK)x is the reward signal.  The closed-loop
    matrix must be stable (spectral radius < 1).
    """

    a_mat: np.ndarray
    b_mat: np.ndarray
    k_mat: np.ndarray
    q_cost: np.ndarray
    r_cost: np.ndarray
    noise_cov: np.ndarray
    gamma: float

    def __post_init__(self):
        for name in ("a_mat", "b_mat", "k_mat", "q_cost", "r_cost", "noise_cov"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "gamma", float(self.gamma))
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        d = self.a_mat.shape[0]
        m = self.b_mat.shape[1]
        if self.a_mat.shape != (d, d) or self.b_mat.shape != (d, m) or self.k_mat.shape != (m, d):
            raise ValueError("inconsistent LQR dimensions")
        _check_psd(self.q_cost, "q_cost")
        _check_psd(self.r_cost, "r_cost")
        _check_psd(self.noise_cov, "noise_cov")
        rho = np.abs(np.linalg.eigvals(self.closed_loop)).max()
        if rho >= 1.0:
            raise ValueError(f"closed-loop spectral radius {rho:.6f} must be < 1")

    @property
    def d(self) -> int:
        return self.a_mat.shape[0]

    @property
    def closed_loop(self) -> np.ndarray:
        return self.a_mat + self.b_mat @ self.k_mat

    @property
    def cost_mat(self) -> np.ndarray:
        c = self.q_cost + self.k_mat.T @ self.r_cost @ self.k_mat
        return 0.5 * (c + c.T)


@dataclass(frozen=True)
class ArchModel:
    """ARCH dynamics x' = L x + sqrt(q + x' Gamma x) * W with quadratic cost x' R x."""

    a_mat: np.ndarray
    scale_mat: np.ndarray
    cost_mat: np.ndarray
    q_scalar: float
    noise_cov: np.ndarray
    gamma: float

    def __post_init__(self):
        for name in ("a_mat", "scale_mat", "cost_mat", "noise_cov"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "q_scalar", float(self.q_scalar))
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must be in (0, 1)")
        if self.q_scalar < 0:
            raise ValueError("q_scalar must be nonnegative")
        _check_psd(self.scale_mat, "scale_mat")
        _check_psd(self.cost_mat, "cost_mat")
        _check_psd(self.noise_cov, "noise_cov")
        if arch_contraction_factor(self) >= 1.0:
            raise ValueError("value recursion for this ARCH model is not a contraction")

    @property
    def d(self) -> int:
        return self.a_mat.shape[0]


def arch_contraction_factor(model: ArchModel) -> float:
    """Upper bound on the contraction factor of P -> gamma(L'PL + Gamma tr(P Sigma))."""
    lin = float(np.linalg.norm(model.a_mat, 2)) ** 2
    cross = float(np.linalg.norm(model.scale_mat, "fro") * np.linalg.norm(model.noise_cov, "fro"))
    return model.gamma * (lin + cross)


def nonlinear_to_z(x: np.ndarray) -> np.ndarray:
    """Coordinate change (x1 - x2^2, x2, x3 - x1^2); rows are points."""
    x = np.asarray(x, dtype=np.float64)
    z = np.empty_like(x)
    z[..., 0] = x[..., 0] - x[..., 1] ** 2
    z[..., 1] = x[..., 1]
    z[..., 2] = x[..., 2] - x[..., 0] ** 2
    return z


def nonlinear_from_z(z: np.ndarray) -> np.ndarray:
    """Inverse coordinate change: x1 = z1 + z2^2, x2 = z2, x3 = z3 + x1^2."""
    z = np.asarray(z, dtype=np.float64)
    x = np.empty_like(z)
    x[..., 0] = z[..., 0] + z[..., 1] ** 2
    x[..., 1] = z[..., 1]
    x[..., 2] = z[..., 2] + x[..., 0] ** 2
    return x


@dataclass(frozen=True)
class NonlinearModel:
    """3-d nonlinear system that is linear in z = (x1 - x2^2, x2, x3 - x1^2)."""

    inner: LqrModel

    def __post_init__(self):
        if self.inner.d != 3:
            raise ValueError("nonlinear model requires a 3-d inner system")

    @property
    def gamma(self) -> float:
        return self.inner.gamma


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_random_tabular(n: int, gamma: float, seed: int) -> TabularModel:
    """Dense chain: Unif(0,1) transition entries row-normalized, Unif(0,1) rewards."""
    if n < 2:
        raise ValueError("random tabular model needs n >= 2")
    rng = np.random.default_rng(seed)
    trans = rng.uniform(0.0, 1.0, size=(n, n))
    trans /= trans.sum(axis=1, keepdims=True)
    reward = rng.uniform(0.0, 1.0, size=n)
    return TabularModel(trans=trans, reward=reward, gamma=gamma)


def make_circular_walk(n: int, gamma: float, seed: int) -> TabularModel:
    """Lazy random walk on a circle: stay w.p. 1/3, step +-1 or +-2 w.p. 1/6 each."""
    if n < 5:
        raise ValueError("circular walk needs n >= 5 so the stencil does not overlap")
    rng = np.random.default_rng(seed)
    trans = np.zeros((n, n))
    idx = np.arange(n)
    trans[idx, idx] = 1.0 / 3.0
    for off in (-2, -1, 1, 2):
        trans[idx, (idx + off) % n] = 1.0 / 6.0
    reward = rng.uniform(0.0, 1.0, size=n)
    return TabularModel(trans=trans, reward=reward, gamma=gamma)


def make_lqr(d: int, m: int, gamma: float, seed: int) -> LqrModel:
    """Random LQR instance, closed loop rescaled to spectral radius 0.9.

    A, B, K draw Unif(0,1) entries; A and B are scaled by a common factor so
    A + BK hits the target radius.  Costs are Gram matrices of Unif(0,1)
    draws; the noise covariance is 0.1 * I.
    """
    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(d, d))
    b = rng.uniform(0.0, 1.0, size=(d, m))
    k = rng.uniform(0.0, 1.0, size=(m, d))
    rho = np.abs(np.linalg.eigvals(a + b @ k)).max()
    scale = LQR_SPECTRAL_TARGET / rho
    a *= scale
    b *= scale
    gq = rng.uniform(0.0, 1.0, size=(d, d))
    gr = rng.uniform(0.0, 1.0, size=(m, m))
    return LqrModel(
        a_mat=a,
        b_mat=b,
        k_mat=k,
        q_cost=gq.T @ gq,
        r_cost=gr.T @ gr,
        noise_cov=NOISE_SCALE * np.eye(d),
        gamma=gamma,
    )


def make_nonlinear(gamma: float, seed: int) -> NonlinearModel:
    """3-d nonlinear benchmark: a random d=m=3 linear system in z-coordinates."""
    return NonlinearModel(inner=make_lqr(3, 3, gamma, seed))


def make_arch(d: int, q: float, gamma: float, seed: int) -> ArchModel:
    """Random ARCH instance rescaled so the value recursion is a contraction.

    L is scaled to ||L||_2^2 = 0.5 and Gamma so that the combined factor
    ||L||_2^2 + ||Gamma||_F ||Sigma||_F stays at 0.95; this keeps both the
    value recursion (with any gamma < 1) and the state second moment stable.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if q < 0:
        raise ValueError("q must be nonnegative")
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=(d, d))
    a *= np.sqrt(ARCH_LIN_BUDGET) / np.linalg.norm(a, 2)
    g_scale = rng.uniform(0.0, 1.0, size=(d, d))
    scale_mat = g_scale.T @ g_scale
    noise = NOISE_SCALE * np.eye(d)
    budget = ARCH_TOTAL_BUDGET - ARCH_LIN_BUDGET
    denom = np.linalg.norm(scale_mat, "fro") * np.linalg.norm(noise, "fro")
    scale_mat = scale_mat * (budget / denom)
    g_cost = rng.uniform(0.0, 1.0, size=(d, d))
    return ArchModel(
        a_mat=a,
        scale_mat=scale_mat,
        cost_mat=g_cost.T @ g_cost,
        q_scalar=q,
        noise_cov=noise,
        gamma=gamma,
    )


# ---------------------------------------------------------------------------
# Ground-truth value functions
# ---------------------------------------------------------------------------


def _lqr_recursion(model: LqrModel):
    """Endless value iteration from zero: (P, const) of x'Px + const per step."""
    m = model.closed_loop
    c = model.cost_mat
    p = np.zeros_like(c)
    const = 0.0
    while True:
        p, const = (
            c + model.gamma * m.T @ p @ m,
            model.gamma * const + model.gamma * float(np.trace(p @ model.noise_cov)),
        )
        yield p, const


def _arch_recursion(model: ArchModel):
    """Endless value iteration from zero: (P, const) of x'Px + const per step."""
    l_mat, g_mat, r_mat = model.a_mat, model.scale_mat, model.cost_mat
    p = np.zeros_like(r_mat)
    const = 0.0
    while True:
        p, const = (
            r_mat + model.gamma * (l_mat.T @ p @ l_mat + g_mat * float(np.trace(p @ model.noise_cov))),
            model.gamma * (model.q_scalar * float(np.trace(p @ model.noise_cov)) + const),
        )
        yield p, const


def _table_iterates(model: TabularModel):
    """Endless value iteration from zero by the dense Bellman backup."""
    v = np.zeros(model.n_states)
    while True:
        v = bellman_apply(model, v)
        yield TableValueFn(v)


def _quadratic_iterates(recursion, coord_map=None):
    for p, const in recursion:
        yield QuadraticValueFn(p, offset=const, coord_map=coord_map)


def _fixed_point(recursion, what: str) -> np.ndarray:
    """The first P of ``recursion`` within 1e-12 of the one before, symmetrized."""
    prev = 0.0
    for _, (p, _) in zip(range(100_000), recursion):
        if np.abs(p - prev).max() <= 1e-12:
            return 0.5 * (p + p.T)
        prev = p
    raise RuntimeError(f"{what} fixed-point iteration did not converge")


def lqr_true_value(model: LqrModel) -> QuadraticValueFn:
    """Quadratic ground truth x'Px + gamma/(1-gamma) tr(P Sigma).

    P is the fixed point of P -> C + gamma M' P M with M the closed loop and
    C the effective cost, the limit of the value-iteration recursion.
    """
    p = _fixed_point(_lqr_recursion(model), "Lyapunov")
    offset = model.gamma / (1.0 - model.gamma) * float(np.trace(p @ model.noise_cov))
    return QuadraticValueFn(p, offset=offset)


def nonlinear_true_value(model: NonlinearModel) -> QuadraticValueFn:
    """Ground truth for the nonlinear system: the inner solution composed with z(x)."""
    inner = lqr_true_value(model.inner)
    return QuadraticValueFn(inner.p_mat, offset=inner.offset, coord_map=nonlinear_to_z)


def arch_true_value(model: ArchModel) -> QuadraticValueFn:
    """Quadratic ground truth for the ARCH model.

    P solves P = R + gamma(L'PL + Gamma tr(P Sigma)), the limit of the
    value-iteration recursion; the offset is gamma q/(1-gamma) tr(P Sigma).
    """
    l_mat, g_mat, r_mat = model.a_mat, model.scale_mat, model.cost_mat
    p = _fixed_point(_arch_recursion(model), "ARCH")
    resid = np.abs(
        p - (r_mat + model.gamma * (l_mat.T @ p @ l_mat + g_mat * float(np.trace(p @ model.noise_cov))))
    ).max()
    if resid > 1e-10 * max(1.0, np.abs(p).max()):
        raise RuntimeError(f"ARCH value fixed-point residual {resid:.3e} too large")
    offset = model.gamma * model.q_scalar / (1.0 - model.gamma) * float(np.trace(p @ model.noise_cov))
    return QuadraticValueFn(p, offset=offset)


# ---------------------------------------------------------------------------
# Values built once per model object
# ---------------------------------------------------------------------------

_MEMO_LOCK = threading.RLock()


def _memo(model, key, build):
    """``build()`` once per model object and key; later calls return that value.

    The values live on the instance itself, so two equal models built apart
    never share one.  Entries are filled under one (re-entrant) lock, so
    concurrent jobs on one model build each entry once.
    """
    _kind(model)
    memo = vars(model).get("_memo")
    if memo is not None and key in memo:
        return memo[key]
    with _MEMO_LOCK:
        memo = vars(model).setdefault("_memo", {})
        if key not in memo:
            memo[key] = build()
        return memo[key]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def stationary_law(model: TabularModel) -> Distribution:
    """The stationary distribution of a tabular model, solved once per model object."""
    return _memo(model, "stationary_law", lambda: stationary_distribution(model))


def _guide(cdfs: np.ndarray, nonzeros: int) -> np.ndarray:
    """Cutpoint guide (Chen & Asau 1974) of CDF rows that each end in 1.0:
    ``guide[r, b]`` counts the entries of row r that are <= b / B, for B
    buckets, and ``guide[r, B]`` is the last index.

    A draw u in bucket b = int(u * B) (exact: B is a power of two) has its
    ``searchsorted(row, u, side="right")`` in ``[guide[r, b], guide[r, b + 1]]``.
    B is the power of two at or above 4 x the widest row's ``nonzeros``,
    capped so that the table takes no more bytes than the CDFs, and the
    counts are as narrow an unsigned type as the row width allows.
    """
    width = cdfs.shape[1]
    dtype = np.min_scalar_type(width - 1)
    fits = (cdfs.itemsize * width) // dtype.itemsize - 1
    buckets = min(1 << (4 * int(nonzeros) - 1).bit_length(), 1 << (fits.bit_length() - 1))
    grid = np.arange(buckets) / buckets
    guide = np.empty((cdfs.shape[0], buckets + 1), dtype=dtype)
    for row, counts in zip(cdfs, guide):
        counts[:-1] = np.searchsorted(row, grid, side="right")
    guide[:, -1] = width - 1
    return guide


def _tabular_cdfs(model: TabularModel) -> tuple:
    """(CDF of the stationary law as a 1-row table, CDF of every transition
    row), each CDF's last entry set to exactly 1, and the ``_guide`` of each;
    built once per model object."""

    def build():
        weights = stationary_law(model).weights
        cdf_mu = np.cumsum(weights)[None, :]
        cdf_mu[0, -1] = 1.0
        cdf_rows = np.cumsum(model.trans, axis=1)
        cdf_rows[:, -1] = 1.0
        return tuple(_read_only(arr) for arr in (
            cdf_mu, _guide(cdf_mu, np.count_nonzero(weights)),
            cdf_rows, _guide(cdf_rows, np.count_nonzero(model.trans, axis=1).max())))

    return _memo(model, "tabular_cdfs", build)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _psd_factor(mat: np.ndarray) -> np.ndarray:
    """Symmetric factor S with S S' = mat; works for singular PSD matrices."""
    w, v = np.linalg.eigh(0.5 * (mat + mat.T))
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def stationary_covariance(model: LqrModel, tol: float = 1e-14, max_iters: int = 100_000) -> np.ndarray:
    """Solve S = M S M' + Sigma for the closed loop by fixed-point iteration."""
    m = model.closed_loop
    s = np.zeros_like(model.noise_cov)
    for _ in range(max_iters):
        s_next = m @ s @ m.T + model.noise_cov
        if np.abs(s_next - s).max() <= tol * max(1.0, np.abs(s_next).max()):
            return 0.5 * (s_next + s_next.T)
        s = s_next
    raise RuntimeError("stationary covariance iteration did not converge")


def _quad_rewards(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    return np.einsum("ni,ij,nj->n", x, c, x)


def _guided_search(cdfs: np.ndarray, guide: np.ndarray, u: np.ndarray, rows=0) -> np.ndarray:
    """``searchsorted(cdfs[rows[i]], u[i], side="right")`` for every draw i,
    as int64; ``rows`` is each draw's row, or one row for all draws.

    The guide brackets each answer in ``[lo, hi]``.  One comparison with
    entry ``lo`` settles every draw with ``hi - lo <= 1``: when ``lo == hi``
    that entry is above u, since ``lo`` is the answer.  The draws with wider
    brackets bisect them, all at once, on the flat CDFs; the brackets end at
    most at the last index, so no probe leaves its row.

    The answers are exact without a monotonicity check: entries are
    cumulative sums of nonnegative numbers up to the last one, which is 1.0,
    and every u is below 1.0, so ``row[j] <= u`` holds on a prefix of each
    row, and any correct search of a prefix finds its length.
    """
    flat, flat_guide = cdfs.ravel(), guide.ravel()
    key = (u * (guide.shape[1] - 1)).astype(np.intp)
    key += rows * guide.shape[1]
    lo = flat_guide[key]
    key += 1
    wide = np.flatnonzero(flat_guide[key] - lo > 1)
    span = flat_guide[key[wide]] - lo[wide]
    del key
    pos = lo.astype(np.intp)
    pos += rows * cdfs.shape[1]
    step = flat[pos] <= u
    start = pos[wide]
    del pos
    out = lo.astype(np.int64)
    out += step
    if wide.size:
        a, b, v = start, start + span, u[wide]
        for _ in range(int(span.max()).bit_length()):
            mid = (a + b) >> 1
            right = flat[mid] <= v
            a = np.where(right, mid + 1, a)
            b = np.where(right, b, mid)
        out[wide] = lo[wide] + (a - start)
    return out


def _sample_tabular(model: TabularModel, n: int, rng: np.random.Generator) -> tuple:
    """States from the stationary law, then each next state from its state's
    transition row, both by ``_guided_search`` of the CDFs, bit for bit what
    a binary search of each draw's CDF gives."""
    cdf_mu, guide_mu, cdf_rows, guide_rows = _tabular_cdfs(model)
    states = _guided_search(cdf_mu, guide_mu, rng.random(n))
    nxt = _guided_search(cdf_rows, guide_rows, rng.random(n), states)
    return states, model.reward[states], nxt


def _sample_lqr(model: LqrModel, n: int, rng: np.random.Generator) -> tuple:
    state_factor, noise_factor = _memo(model, "lqr_factors", lambda: tuple(
        _read_only(_psd_factor(cov).T) for cov in (stationary_covariance(model), model.noise_cov)))
    x = rng.standard_normal((n, model.d)) @ state_factor
    w = rng.standard_normal((n, model.d)) @ noise_factor
    x_next = x @ model.closed_loop.T + w
    return x, _quad_rewards(x, model.cost_mat), x_next


def _sample_nonlinear(model: NonlinearModel, n: int, rng: np.random.Generator) -> tuple:
    z, rewards, z_next = _sample_lqr(model.inner, n, rng)
    return nonlinear_from_z(z), rewards, nonlinear_from_z(z_next)


def _sample_arch(model: ArchModel, chains: list) -> list:
    """(states, rewards, next states) of each ``(n, rng)`` chain: n pairs of
    one trajectory from the origin, the first pair after ARCH_BURN_IN steps,
    then one every ARCH_STRIDE steps.  Each chain gets the bits it would get
    alone.

    Each chain draws its noise from its own generator ARCH_BLOCK steps at a
    time, shaped by a stacked (b, 1, d) @ F product, which gives each step
    the bits of a per-step (1, d) draw (a (b, d) @ F product need not).  The
    chains run longest first, so the live ones are always a prefix.  While
    k >= 2 chains are live they step together: a stacked (k, 1, d) @ L'
    product runs one gemv per chain, as ``x @ L'`` does, and one einsum
    takes every quadratic form, except at d = 2, where the batched einsum
    groups the sum unlike the one-chain einsum and each form is taken
    alone.  A lone live chain takes the one-chain step on a 1-d vector.
    Only the kept pairs are stored, so no array grows with the trajectory.
    """
    d = model.d
    factor = _psd_factor(model.noise_cov).T
    a_t, g_mat, q = model.a_mat.T, model.scale_mat, model.q_scalar

    def quad(x):
        if d == 2:
            return np.array([np.einsum("i,ij,j->", xc, g_mat, xc) for xc in x])
        return np.einsum("ki,ij,kj->k", x, g_mat, x)

    order = sorted(range(len(chains)), key=lambda c: -chains[c][0])
    ns = [chains[c][0] for c in order]
    rngs = [chains[c][1] for c in order]
    ends = [ARCH_BURN_IN + n * ARCH_STRIDE for n in ns]
    # Kept pair i of chain c is row rows[i] + c: the live chains' pairs, pair by pair.
    keeping = (np.array(ns) > np.arange(ns[0])[:, None]).sum(axis=1)
    rows = np.cumsum(keeping) - keeping
    states = np.empty((sum(ns), d))
    next_states = np.empty_like(states)
    x = np.zeros((len(ns), d))
    keep, row, lo = ARCH_BURN_IN, 0, 0
    # Segments of steps with a fixed live prefix, cut at block starts and chain ends.
    for hi in sorted({*range(ARCH_BLOCK, ends[0], ARCH_BLOCK), *ends}):
        k = sum(end > lo for end in ends)
        block = lo - lo % ARCH_BLOCK
        if lo == block:
            noise = np.empty((min(ARCH_BLOCK, ends[0] - lo), k, d))
            for c, (rng, end) in enumerate(zip(rngs[:k], ends)):
                m = min(ARCH_BLOCK, end - lo)
                noise[:m, c] = (rng.standard_normal((m, 1, d)) @ factor)[:, 0]
        # A lone chain steps as a 1-d vector, k >= 2 chains as a (k, d) array.
        live = 0 if k == 1 else slice(k)
        xs, ws = x[live], noise[lo - block:hi - block, live]
        for t, w in enumerate(ws, lo):
            if t == keep:
                states[row:row + k] = xs
            if k == 1:
                xs = xs @ a_t + math.sqrt(q + np.einsum("i,ij,j->", xs, g_mat, xs)) * w
            else:
                xs = (xs[:, None, :] @ a_t)[:, 0] + np.sqrt(q + quad(xs))[:, None] * w
            if t == keep:
                next_states[row:row + k] = xs
                row += k
                keep += ARCH_STRIDE
        x[live] = xs
        lo = hi
    out = [None] * len(ns)
    for c, n in enumerate(ns):
        at = slice(None) if len(ns) == 1 else rows[:n] + c
        s = states[at]
        out[order[c]] = (s, _quad_rewards(s, model.cost_mat), next_states[at])
    return out


# ---------------------------------------------------------------------------
# Model kinds
# ---------------------------------------------------------------------------


def _sampled_states(model, n: int, seed: int) -> np.ndarray:
    return _sample(model, n, seed)[0]


def _nonlinear_states(model: NonlinearModel, n: int, seed: int) -> np.ndarray:
    return nonlinear_from_z(stationary_states(model.inner, n, seed))


def _each_draw(env, specs: list):
    # Through the module global, so a wrapped sample_transitions sees every draw.
    for n, seed in specs:
        yield sample_transitions(env, n, seed)


def _lockstep_draws(model: ArchModel, specs: list):
    for n, _ in specs:
        _check_n(n)
    drawn = _sample_arch(model, [(n, np.random.default_rng(seed)) for n, seed in specs]) if specs else []
    # Hand each dataset over, keeping no reference to it.
    drawn.reverse()
    while drawn:
        yield Dataset(*drawn.pop(), draw_mode=DrawMode.BURN_IN_TRAJECTORY)


def _lqr_params(model: LqrModel) -> dict:
    return {
        "d": model.d,
        "m": model.b_mat.shape[1],
        "gamma": model.gamma,
        "closed_loop_radius": float(np.abs(np.linalg.eigvals(model.closed_loop)).max()),
        "noise_scale": NOISE_SCALE,
    }


@dataclass(frozen=True)
class _Kind:
    """What one model class does: its name in ``env_params``, its sampler
    ``(model, n, rng) -> (states, rewards, next states)``, its ground truth,
    its exact value-iteration iterates, its loggable parameters, the draw
    mode of its datasets, how its evaluation states are drawn and how
    ``transition_draws`` makes a list of draws."""

    name: str
    sample: Callable
    truth: Callable
    iterates: Callable
    params: Callable
    draw_mode: DrawMode = DrawMode.EXACT_STATIONARY
    draw_states: Callable = _sampled_states
    draws: Callable = _each_draw


_KINDS = {
    TabularModel: _Kind(
        "tabular", _sample_tabular, lambda m: TableValueFn(solve_exact(m)), _table_iterates,
        lambda m: {"n_states": m.n_states, "gamma": m.gamma},
    ),
    LqrModel: _Kind(
        "lqr", _sample_lqr, lqr_true_value, lambda m: _quadratic_iterates(_lqr_recursion(m)), _lqr_params,
    ),
    # The nonlinear model is its inner linear system composed with z(x).
    NonlinearModel: _Kind(
        "nonlinear", _sample_nonlinear, nonlinear_true_value,
        lambda m: _quadratic_iterates(_lqr_recursion(m.inner), nonlinear_to_z),
        lambda m: _lqr_params(m.inner), draw_states=_nonlinear_states,
    ),
    # ARCH has no closed-form stationary law: its draws come from burned-in
    # trajectories, and a list of draws steps its chains in lockstep.
    ArchModel: _Kind(
        "arch", lambda m, n, rng: _sample_arch(m, [(n, rng)])[0], arch_true_value,
        lambda m: _quadratic_iterates(_arch_recursion(m)),
        lambda m: {
            "d": m.d,
            "q": m.q_scalar,
            "gamma": m.gamma,
            "contraction_factor": arch_contraction_factor(m),
            "noise_scale": NOISE_SCALE,
            "burn_in": ARCH_BURN_IN,
            "stride": ARCH_STRIDE,
        },
        draw_mode=DrawMode.BURN_IN_TRAJECTORY, draws=_lockstep_draws,
    ),
}


def _kind(model) -> _Kind:
    """The kind table entry of ``model``'s class (or its nearest listed base)."""
    for cls in type(model).__mro__:
        if cls in _KINDS:
            return _KINDS[cls]
    raise ValueError(f"unsupported model kind: {type(model).__name__}")


def true_value(env):
    """Ground-truth value function for any benchmark model, built once per model object."""
    return _memo(env, "true_value", lambda: _kind(env).truth(env))


def vi_iterates(env):
    """Endless exact value iteration from the zero function: the dense backup
    for tabular models, the closed-form quadratic recursions otherwise (the
    nonlinear model through its inner linear system, composed with z(x))."""
    return _kind(env).iterates(env)


def env_params(env) -> dict:
    """Loggable scalar summary of a model (sizes, gamma, rescaling facts)."""
    kind = _kind(env)
    return {"kind": kind.name, **kind.params(env)}


def _check_n(n: int):
    if n < 1:
        raise ValueError("n must be positive")


def _sample(env, n: int, seed: int) -> tuple:
    """(states, rewards, next states) of n transitions; states are drawn first."""
    _check_n(n)
    return _kind(env).sample(env, n, np.random.default_rng(seed))


def sample_transitions(env, n: int, seed: int) -> Dataset:
    """Draw n transition triples (x, r(x), x').

    Tabular, LQR, and nonlinear models draw x exactly from the stationary
    law; ARCH has no closed-form stationary law so a burned-in trajectory is
    subsampled with a stride, and the dataset records that mode.
    """
    return Dataset(*_sample(env, n, seed), draw_mode=_kind(env).draw_mode)


def transition_draws(env, specs):
    """An iterator over ``sample_transitions(env, n, seed)`` for each
    ``(n, seed)`` of ``specs``, in order, bit for bit.

    ARCH makes every draw on the first request, its chains stepped in
    lockstep; every other kind makes each draw when it is requested.
    """
    return _kind(env).draws(env, list(specs))


def stationary_states(env, n: int, seed: int) -> np.ndarray:
    """n states from the stationary law (trajectory-based for ARCH), the
    states of ``sample_transitions(env, n, seed)``.

    Built once per (model object, n, seed) and returned read-only; every
    call gives the bits of a fresh draw.
    """
    return _memo(env, ("stationary_states", n, seed), lambda: _read_only(_kind(env).draw_states(env, n, seed)))


# ---------------------------------------------------------------------------
# Nonlinear simulation in both coordinate systems
# ---------------------------------------------------------------------------


def simulate_linear_z(model: NonlinearModel, z0: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Iterate z' = M z + w for a given noise sequence; returns all iterates."""
    m = model.inner.closed_loop
    steps = noise.shape[0]
    out = np.empty((steps + 1, 3))
    out[0] = z0
    for t in range(steps):
        out[t + 1] = m @ out[t] + noise[t]
    return out


def simulate_nonlinear_x(model: NonlinearModel, x0: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Step the system in x-space: features z(x), linear update, map back."""
    m = model.inner.closed_loop
    steps = noise.shape[0]
    out = np.empty((steps + 1, 3))
    out[0] = x0
    for t in range(steps):
        z = nonlinear_to_z(out[t])
        out[t + 1] = nonlinear_from_z(m @ z + noise[t])
    return out
