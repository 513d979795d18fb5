"""Correctness checks made apart from the library.

Ground truth is recomputed here without the library's solvers, and every
check compares program output against that truth or against analytic facts
(sample budgets, contraction, the circulant spectrum).  Nothing is compared
against a stored copy of earlier output.  Each check returns a list of
failure messages; an empty list means it passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

CSV_COLUMNS = ["iter", "cum_samples", "mu_error", "ridge_used", "wall_ms"]
TRUTH_RTOL = 1e-8
SAME_INIT_RTOL = 1e-12
SANDWICH_TOL = 1e-9
SPECTRUM_TOL = 1e-9
BOUND_TOL = 1e-12
CERT_TOL = 1e-8


# ---------------------------------------------------------------------------
# Ground truth
# ---------------------------------------------------------------------------


def nonlinear_truth(env):
    """V(x) = z'Pz + c with P from a direct discrete Lyapunov solve on the inner loop."""
    inner = env.inner
    m = inner.a_mat + inner.b_mat @ inner.k_mat
    cost = inner.q_cost + inner.k_mat.T @ inner.r_cost @ inner.k_mat
    cost = 0.5 * (cost + cost.T)
    # P = C + gamma M'PM  <=>  P = (sqrt(gamma) M') P (sqrt(gamma) M')' + C
    p = scipy.linalg.solve_discrete_lyapunov(math.sqrt(inner.gamma) * m.T, cost)
    p = 0.5 * (p + p.T)
    offset = inner.gamma / (1.0 - inner.gamma) * float(np.trace(p @ inner.noise_cov))

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        z = np.column_stack([x[:, 0] - x[:, 1] ** 2, x[:, 1], x[:, 2] - x[:, 0] ** 2])
        return np.einsum("ni,ij,nj->n", z, p, z) + offset

    return value


def arch_truth(env):
    """V(x) = x'Px + c with vec(P) from one dense Kronecker-vectorised solve."""
    d = env.a_mat.shape[0]
    lhs = (
        np.eye(d * d)
        - env.gamma * np.kron(env.a_mat.T, env.a_mat.T)
        - env.gamma * np.outer(env.scale_mat.ravel(), env.noise_cov.ravel())
    )
    p = np.linalg.solve(lhs, env.cost_mat.ravel()).reshape(d, d)
    p = 0.5 * (p + p.T)
    offset = env.gamma * env.q_scalar / (1.0 - env.gamma) * float(np.trace(p @ env.noise_cov))

    def value(x):
        x = np.asarray(x, dtype=np.float64)
        return np.einsum("ni,ij,nj->n", x, p, x) + offset

    return value


def circular_walk_matrix(n: int) -> np.ndarray:
    """The lazy circular walk: stay 1/3, step +-1 or +-2 with 1/6 each."""
    trans = np.zeros((n, n))
    idx = np.arange(n)
    trans[idx, idx] = 1.0 / 3.0
    for off in (-2, -1, 1, 2):
        trans[idx, (idx + off) % n] = 1.0 / 6.0
    return trans


def tabular_truth(n: int, gamma: float, reward) -> np.ndarray:
    """Dense solve of (I - gamma P) v = r on the analytic walk matrix."""
    return np.linalg.solve(np.eye(n) - gamma * circular_walk_matrix(n), np.asarray(reward, dtype=np.float64))


def circulant_eigenvalues(n: int) -> np.ndarray:
    k = np.arange(n)
    return 1.0 / 3.0 + np.cos(2 * np.pi * k / n) / 3.0 + np.cos(4 * np.pi * k / n) / 3.0


# ---------------------------------------------------------------------------
# Checks on algorithm runs.  A run is summarised as a dict with keys
# algo, seed, initial_error, errors (list), cum_samples (list).
# ---------------------------------------------------------------------------


def summarize_record(record, seed) -> dict:
    return {
        "algo": record.algo,
        "seed": int(seed),
        "initial_error": float(record.initial_error),
        "errors": [float(e) for e in record.errors],
        "cum_samples": [int(c) for c in record.cum_samples],
    }


def check_initial_errors(runs: list, expected: float) -> list:
    """Every run reports the same initial error, equal to the independent one."""
    fails = []
    if not runs:
        return ["no runs to check"]
    first = runs[0]["initial_error"]
    for run in runs:
        init = run["initial_error"]
        if abs(init - first) > SAME_INIT_RTOL * max(1.0, abs(first)):
            fails.append(f"{run['algo']} seed {run['seed']}: initial error {init!r} differs from {first!r}")
        if not abs(init - expected) <= TRUTH_RTOL * abs(expected):
            fails.append(
                f"{run['algo']} seed {run['seed']}: initial error {init!r} != independent {expected!r}"
            )
    return fails


def expected_cum_samples(n_per_iter: int, max_iters: int, first_mult: int, draws_per_iter: int) -> list:
    cum, out = 0, []
    for t in range(max_iters):
        cum += draws_per_iter * n_per_iter * (first_mult if t == 0 else 1)
        out.append(cum)
    return out


def check_cum_samples(run: dict, expected: list) -> list:
    if list(run["cum_samples"]) != list(expected):
        return [f"{run['algo']} seed {run['seed']}: cum_samples {run['cum_samples']} != budget {expected}"]
    return []


def check_kbb_beats_fvi(kbb_runs: list, fvi_runs: list) -> list:
    """KBB ends below its start, and its median final error is at most FVI's
    median final error at the same cumulative samples."""
    fails = []
    for run in kbb_runs:
        if not run["errors"][-1] < run["initial_error"]:
            fails.append(f"kbb seed {run['seed']}: final error {run['errors'][-1]!r} not below initial")
    kbb_final = float(np.median([r["errors"][-1] for r in kbb_runs]))
    fvi_final = float(np.median([r["errors"][-1] for r in fvi_runs]))
    kbb_cum = {r["cum_samples"][-1] for r in kbb_runs}
    fvi_cum = {r["cum_samples"][-1] for r in fvi_runs}
    if kbb_cum != fvi_cum or len(kbb_cum) != 1:
        fails.append(f"final cumulative samples differ: kbb {sorted(kbb_cum)} fvi {sorted(fvi_cum)}")
    if not kbb_final <= fvi_final:
        fails.append(f"median final error kbb {kbb_final!r} > fvi {fvi_final!r}")
    return fails


def check_vi_ratios(run: dict, gamma: float) -> list:
    errs = [run["initial_error"]] + list(run["errors"])
    fails = []
    for t in range(1, len(errs)):
        if errs[t - 1] > 0 and errs[t] / errs[t - 1] > gamma + 1e-9:
            fails.append(f"vi seed {run['seed']}: error ratio {errs[t] / errs[t - 1]!r} > gamma at iter {t}")
    return fails


def check_repeatable(round_finals: list) -> list:
    """Every round of one run repeats the same inputs, so results must match bit for bit."""
    if any(f != round_finals[0] for f in round_finals[1:]):
        return ["final errors differ between rounds with identical inputs"]
    return []


# ---------------------------------------------------------------------------
# Checks on `kbb run` output and on the diagnostics
# ---------------------------------------------------------------------------


def read_run_dir(run_dir) -> dict:
    """Parse a `kbb run` directory into {manifest, runs: {(algo, seed): {...}}}."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    runs = {}
    for entry in manifest.get("runs", []):
        lines = (run_dir / entry["csv"]).read_text(encoding="utf-8").splitlines()
        meta = json.loads((run_dir / entry["meta"]).read_text(encoding="utf-8"))
        runs[(entry["algo"], int(entry["seed"]))] = {
            "header": lines[0].split(",") if lines else [],
            "rows": [line.split(",") for line in lines[1:]],
            "initial_error": float(meta["initial_error"]),
        }
    return {"manifest": manifest, "runs": runs}


def run_dir_summaries(parsed: dict) -> list:
    out = []
    for (algo, seed), run in sorted(parsed["runs"].items()):
        out.append({
            "algo": algo,
            "seed": seed,
            "initial_error": run["initial_error"],
            "errors": [float(r[2]) for r in run["rows"] if len(r) == 5],
            "cum_samples": [int(r[1]) for r in run["rows"] if len(r) == 5],
        })
    return out


def check_run_dir(parsed: dict, algos: list, seeds: list, max_iters: int) -> list:
    fails = []
    if parsed["manifest"].get("status") != "complete":
        fails.append(f"manifest status is {parsed['manifest'].get('status')!r}, not 'complete'")
    for algo in algos:
        for seed in seeds:
            run = parsed["runs"].get((algo, seed))
            if run is None:
                fails.append(f"missing run {algo} seed {seed}")
                continue
            if run["header"] != CSV_COLUMNS:
                fails.append(f"{algo} seed {seed}: CSV header {run['header']}")
            if len(run["rows"]) != max_iters or any(len(r) != 5 for r in run["rows"]):
                fails.append(f"{algo} seed {seed}: {len(run['rows'])} rows, expected {max_iters} of 5 fields")
            elif [int(r[0]) for r in run["rows"]] != list(range(1, max_iters + 1)):
                fails.append(f"{algo} seed {seed}: iter column is not 1..{max_iters}")
    return fails


def read_spectra_csv(path) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "t,mineig,maxeig,theorem1_bound":
        raise ValueError(f"unexpected spectra header {lines[0]!r}")
    return [(int(t), float(lo), float(hi), float(b)) for t, lo, hi, b in (ln.split(",") for ln in lines[1:])]


def check_spectra(rows: list, n: int, gamma: float, depth: int) -> list:
    fails = []
    if [r[0] for r in rows] != list(range(depth + 1)):
        fails.append(f"spectra rows are t={[r[0] for r in rows]}, expected 0..{depth}")
        return fails
    q_eigs = 1.0 - gamma * circulant_eigenvalues(n)
    _, lo0, hi0, _ = rows[0]
    if abs(lo0 - q_eigs.min()) > SPECTRUM_TOL or abs(hi0 - q_eigs.max()) > SPECTRUM_TOL:
        fails.append(f"t=0 ({lo0!r}, {hi0!r}) != analytic ({q_eigs.min()!r}, {q_eigs.max()!r})")
    for t, lo, hi, bound in rows:
        if not (1.0 - gamma - SANDWICH_TOL <= lo <= hi <= 1.0 + gamma + SANDWICH_TOL):
            fails.append(f"t={t}: ({lo!r}, {hi!r}) outside [1-gamma, 1+gamma]")
        if abs(bound - (1.0 - lo * lo / (8.0 * hi))) > BOUND_TOL:
            fails.append(f"t={t}: bound {bound!r} != 1 - lo^2/(8 hi)")
    return fails


def check_certificate(rows: list, max_iters: int) -> list:
    fails = []
    if not rows:
        return ["certificate has no rows"]
    if [r[0] for r in rows] != list(range(len(rows))) or len(rows) > max_iters:
        fails.append(f"certificate iterations {[r[0] for r in rows]} are not 0..k-1 with k <= {max_iters}")
    for t, bound, observed in rows:
        if not 0.0 < bound < 1.0:
            fails.append(f"iter {t}: bound {bound!r} outside (0, 1)")
        if not 0.0 <= observed <= bound + CERT_TOL:
            fails.append(f"iter {t}: observed ratio {observed!r} exceeds bound {bound!r}")
    return fails
