"""Span recording around the library's public functions, from outside.

A ``Tracer`` keeps spans (name, start, end, parent) in memory and adds up,
per span name, the number of calls, the inclusive time and the self time
(the span's duration minus the time its child spans cover).  ``install``
replaces functions and methods with recording wrappers and returns an undo
callable that puts the originals back.

Several kbb modules bind a function by name at import (``algorithms`` takes
``sample_transitions``, ``fit``, ``solve_linear_system`` and
``span_correlation`` that way, ``cli`` takes ``run_*``), so a patch point
lists every namespace where callers look the name up.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

# Written trace files keep at most this many spans (the earliest ones; a
# parent always starts before its children, so the kept prefix is closed).
MAX_WRITTEN_SPANS = 20_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[list] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name: str):
        now = self.clock()
        idx = len(self.span_name)
        self.span_name.append(self._id(name))
        self.span_start.append(now)
        self.span_end.append(now)
        self.span_parent.append(self._stack[-1][3] if self._stack else -1)
        self._stack.append([name, now, 0.0, idx])

    def exit(self):
        now = self.clock()
        name, start, child_s, idx = self._stack.pop()
        dur = now - start
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += dur - child_s
        if self._stack:
            self._stack[-1][2] += dur
        self.span_end[idx] = now

    def count(self, key: str, amount: float = 1.0):
        self.counts[key] += amount

    def wrap(self, name: str, fn, counter=None):
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict:
        """Per-name totals of calls, times and counts so far."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
        }

    def spans_table(self) -> dict:
        n = min(len(self.span_name), MAX_WRITTEN_SPANS)
        t0 = self.span_start[0] if n else 0.0
        return {
            "names": list(self.names),
            "recorded": len(self.span_name),
            "written": n,
            "columns": ["name", "start_s", "end_s", "parent"],
            "name": self.span_name[:n],
            "start_s": [round(t - t0, 7) for t in self.span_start[:n]],
            "end_s": [round(t - t0, 7) for t in self.span_end[:n]],
            "parent": self.span_parent[:n],
        }


# ---------------------------------------------------------------------------
# Counters: called with (tracer, call args, result) after a traced call
# ---------------------------------------------------------------------------


def _best_split(tr, args, result):
    tr.count("trees.best_split_found", result is not None)


def _tree_fit(tr, args, result):
    tr.count("trees.nodes_fit", result.feature.shape[0])


def _tree_predict(tr, args, result):
    tr.count("trees.predict_rows", result.shape[0])


def _regression_fit(tr, args, result):
    pairs = args[0]
    tr.count("regression.fit_rows", len(pairs[0]) if isinstance(pairs, tuple) else len(pairs))


def _ensemble_eval(tr, args, result):
    tr.count("regression.ensemble_eval_rows", result.shape[0] * len(args[0].trees))


def _sample_transitions(tr, args, result):
    tr.count("envs.samples_drawn", len(result))


def _evaluator_build(tr, args, result):
    tr.count("algorithms.evaluator_builds")


def _basis_evaluate(tr, args, result):
    tr.count("lstd.basis_evaluate_cells", result.size)


def _solve(tr, args, result):
    tr.count("lstd.ridge_solves", result.ridge_used > 0.0)


def _run_kbb(tr, args, result):
    iters = len(result.rows)
    tr.count("algorithms.kbb_iterations", iters)
    tr.count("algorithms.kbb_accepted", iters - len(result.meta.get("rejected_iters", [])))


def _save_run(tr, args, result):
    tr.count("records.bytes_written", os.path.getsize(args[1]) + os.path.getsize(args[2]))


def patch_points(full: bool) -> list:
    """(span name, namespaces, attribute, counter) for every traced call.

    Without ``full`` only the top-level algorithm calls are wrapped, which
    is what the untraced run needs to split ``kbb_s`` and ``fvi_s`` out of a
    ``kbb run``.
    """
    import kbb
    from kbb import algorithms, cli, config, diagnostics, envs, lstd, mrp, records, regression, trees

    top = [
        ("algorithms.run_kbb", (algorithms, cli, kbb), "run_kbb", _run_kbb),
        ("algorithms.run_fvi", (algorithms, cli, kbb), "run_fvi", None),
        ("algorithms.run_vi", (algorithms, cli, kbb), "run_vi", None),
    ]
    if not full:
        return top
    return top + [
        ("trees.best_split", (trees,), "best_split", _best_split),
        ("trees.fit", (trees.RegressionTree,), "fit", _tree_fit),
        ("trees.predict", (trees.RegressionTree,), "predict", _tree_predict),
        ("regression.fit", (regression, algorithms, kbb), "fit", _regression_fit),
        ("regression.ensemble_eval", (regression.BoostedTreesFn,), "__call__", _ensemble_eval),
        ("envs.sample_transitions", (envs, algorithms, kbb), "sample_transitions", _sample_transitions),
        ("envs.stationary_states", (envs,), "stationary_states", None),
        ("mrp.stationary_distribution", (mrp, envs, algorithms, diagnostics, kbb),
         "stationary_distribution", None),
        ("algorithms.error_eval", (algorithms.ErrorEvaluator,), "__init__", _evaluator_build),
        ("algorithms.error_eval", (algorithms.ErrorEvaluator,), "__call__", None),
        ("algorithms.error_eval", (algorithms.ErrorEvaluator,), "error_of_values", None),
        ("lstd.basis_evaluate", (lstd.BasisSet,), "evaluate", _basis_evaluate),
        ("lstd.span_correlation", (lstd, algorithms), "span_correlation", None),
        ("lstd.solve", (lstd, algorithms), "solve_linear_system", _solve),
        ("diagnostics.spectra_table", (diagnostics, cli), "spectra_table", None),
        ("diagnostics.check_theorem1_rate", (diagnostics, kbb), "check_theorem1_rate", None),
        ("diagnostics.oracle_kbb", (diagnostics, kbb), "oracle_kbb", None),
        ("diagnostics.krylov_basis", (diagnostics, kbb), "krylov_basis", None),
        ("diagnostics.restricted_spectral_values", (diagnostics, kbb),
         "restricted_spectral_values", None),
        ("records.save_run", (records, cli), "save_run", _save_run),
        ("config.parse", (config.ExperimentConfig,), "from_text", None),
        ("cli.run_experiment", (cli,), "run_experiment", None),
        ("cli.spectra", (cli,), "spectra", None),
    ]


def install(tracer: Tracer, full: bool):
    """Wrap every patch point; returns a callable that restores the originals."""
    undo = []
    for name, owners, attr, counter in patch_points(full):
        for owner in owners:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(tracer.wrap(name, raw.__func__, counter))
            else:
                new = tracer.wrap(name, raw, counter)
            setattr(owner, attr, new)
            undo.append((owner, attr, raw))

    def restore():
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, how to read it from a per-round interval)
LAYER_METRICS = [
    ("trees.best_split_s", "ref_s", ("self_s", "trees.best_split")),
    ("trees.best_split_calls", "count", ("calls", "trees.best_split")),
    ("trees.best_split_found_ratio", "ratio", ("ratio", "trees.best_split_found", "trees.best_split")),
    ("trees.fit_s", "ref_s", ("self_s", "trees.fit")),
    ("trees.trees_fit", "count", ("calls", "trees.fit")),
    ("trees.nodes_fit", "count", ("counts", "trees.nodes_fit")),
    ("trees.predict_s", "ref_s", ("self_s", "trees.predict")),
    ("trees.predict_rows", "count", ("counts", "trees.predict_rows")),
    ("regression.fit_s", "ref_s", ("self_s", "regression.fit")),
    ("regression.fit_calls", "count", ("calls", "regression.fit")),
    ("regression.fit_rows", "count", ("counts", "regression.fit_rows")),
    ("regression.ensemble_eval_s", "ref_s", ("self_s", "regression.ensemble_eval")),
    ("regression.ensemble_eval_rows", "count", ("counts", "regression.ensemble_eval_rows")),
    ("envs.sample_transitions_s", "ref_s", ("self_s", "envs.sample_transitions")),
    ("envs.sample_transitions_calls", "count", ("calls", "envs.sample_transitions")),
    ("envs.samples_drawn", "count", ("counts", "envs.samples_drawn")),
    ("envs.stationary_states_s", "ref_s", ("self_s", "envs.stationary_states")),
    ("mrp.stationary_distribution_s", "ref_s", ("self_s", "mrp.stationary_distribution")),
    ("mrp.stationary_distribution_calls", "count", ("calls", "mrp.stationary_distribution")),
    ("algorithms.error_eval_s", "ref_s", ("self_s", "algorithms.error_eval")),
    ("algorithms.evaluator_builds", "count", ("counts", "algorithms.evaluator_builds")),
    ("algorithms.run_kbb_s", "ref_s", ("self_s", "algorithms.run_kbb")),
    ("algorithms.run_fvi_s", "ref_s", ("self_s", "algorithms.run_fvi")),
    ("algorithms.run_vi_s", "ref_s", ("self_s", "algorithms.run_vi")),
    ("algorithms.basis_accept_ratio", "ratio",
     ("ratio", "algorithms.kbb_accepted", "algorithms.kbb_iterations")),
    ("lstd.basis_evaluate_s", "ref_s", ("self_s", "lstd.basis_evaluate")),
    ("lstd.basis_evaluate_cells", "count", ("counts", "lstd.basis_evaluate_cells")),
    ("lstd.span_correlation_s", "ref_s", ("self_s", "lstd.span_correlation")),
    ("lstd.solve_s", "ref_s", ("self_s", "lstd.solve")),
    ("lstd.solve_calls", "count", ("calls", "lstd.solve")),
    ("lstd.ridge_solves", "count", ("counts", "lstd.ridge_solves")),
    ("diagnostics.spectra_table_total_s", "ref_s", ("total_s", "diagnostics.spectra_table")),
    ("diagnostics.check_theorem1_rate_total_s", "ref_s", ("total_s", "diagnostics.check_theorem1_rate")),
    ("diagnostics.oracle_kbb_s", "ref_s", ("self_s", "diagnostics.oracle_kbb")),
    ("diagnostics.krylov_basis_s", "ref_s", ("self_s", "diagnostics.krylov_basis")),
    ("diagnostics.restricted_spectral_values_s", "ref_s", ("self_s", "diagnostics.restricted_spectral_values")),
    ("diagnostics.restricted_spectral_values_calls", "count",
     ("calls", "diagnostics.restricted_spectral_values")),
    ("records.save_run_s", "ref_s", ("self_s", "records.save_run")),
    ("records.bytes_written", "bytes", ("counts", "records.bytes_written")),
    ("config.parse_s", "ref_s", ("self_s", "config.parse")),
    ("cli.run_experiment_s", "ref_s", ("self_s", "cli.run_experiment")),
    ("bench.unattributed_s", "ref_s", ("self_s", "bench.round")),
]


def layer_values(interval: dict, rounds: int, speed: float) -> dict:
    """Per-round layer metrics from a traced interval covering ``rounds`` rounds;
    times are scaled by the rounds' machine ``speed`` into reference seconds."""
    out = {}
    for metric, unit, (kind, *keys) in LAYER_METRICS:
        if kind == "ratio":
            num = interval["counts"].get(keys[0], 0)
            den = interval["counts"].get(keys[1], interval["calls"].get(keys[1], 0))
            value = float(num / den) if den else 0.0
        else:
            value = float(interval[kind].get(keys[0], 0)) / rounds
            if unit == "ref_s":
                value *= speed
        out[metric] = {"value": value, "unit": unit}
    return out


def self_time_breakdown(interval: dict, rounds: int, speed: float) -> list:
    """(span name, self reference seconds per round, calls per round), largest first."""
    rows = [
        (name, interval["self_s"][name] * speed / rounds, interval["calls"].get(name, 0) / rounds)
        for name in interval["self_s"]
    ]
    return sorted(rows, key=lambda r: -r[1])


def blas_info() -> dict:
    """numpy/scipy/OpenBLAS versions and the OpenBLAS thread count in use."""
    import ctypes

    import scipy

    info = {"numpy": np.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count()}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        info["openblas"] = None
    threads = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(fn())
                break
    info["blas_threads"] = threads
    return info
