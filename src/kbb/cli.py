"""Experiment runner and reporting CLI.

Subcommands::

    kbb run <config>                          execute all (algo, seed) pairs
    kbb compare <dirs...> [--out table.csv]   sample-complexity comparison
    kbb plot <dirs...> --out plot.svg         log-error plot
    kbb spectra <config> --depth K [--out f]  restricted spectral values

Environment overrides: KBB_OUT_DIR replaces the config's out_dir and
KBB_THREADS (an integer >= 1) sets the worker-pool size for (algo, seed)
pairs.

Exit codes: 0 success, 2 invalid config or arguments, 1 runtime failure
(partial results are kept, with a failure marker in the manifest).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import math
import os
import sys
from pathlib import Path

from . import __version__, envs
from .algorithms import run_fvi, run_kbb, run_vi
from .config import ConfigError, ExperimentConfig, build_env
from .diagnostics import spectra_table
from .mrp import TabularModel, is_reversible
from .records import RunRecord, json_text, load_run_csv, load_run_meta, save_run, write_atomic
from .svgplot import render_log_error_plot

__all__ = ["main", "run_experiment", "compare", "plot", "spectra", "ComparisonReport"]

# Fractions of the initial error that the comparison counts samples to, with their column tags.
COMPLEXITY_FRACTIONS = {0.5: "half", 0.1: "tenth"}


def _execute_one(env, cfg: ExperimentConfig, algo: str, seed: int) -> RunRecord:
    common = dict(
        truth=envs.true_value(env),
        n_eval=cfg.eval_n,
        eval_seed=cfg.eval_seed,
        config_hash=cfg.config_hash(),
    )
    if algo == "vi":
        record = run_vi(env, cfg.budget.max_iters, **common)
        record.seeds = [seed]
        return record
    if algo == "fvi":
        return run_fvi(env, cfg.regressor, cfg.budget, seed=seed, **common)
    if algo == "kbb":
        return run_kbb(env, cfg.regressor, cfg.budget, seed=seed, **common)
    raise ConfigError(f"algos: unknown algorithm {algo!r}")


def run_experiment(config_path, out_dir=None, threads: int = 1) -> Path:
    """Execute a config file; returns the populated run directory.

    The manifest is written last and records completion status; on failure
    the partial results stay on disk with status "failed".
    """
    cfg = ExperimentConfig.from_file(config_path)
    env = build_env(cfg)
    out = Path(out_dir if out_dir is not None else cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(algo, seed) for algo in cfg.algos for seed in cfg.seeds]
    manifest = {
        "library_version": __version__,
        "config_hash": cfg.config_hash(),
        "config": cfg.resolved(),
        "config_text": cfg.source_text,
        "env": envs.env_params(env),
        "eval": {"n_eval": cfg.eval_n, "seed": cfg.eval_seed},
        "runs": [],
        "status": "incomplete",
    }
    try:
        if threads > 1:
            with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
                records = list(pool.map(lambda js: _execute_one(env, cfg, *js), jobs))
        else:
            records = [_execute_one(env, cfg, algo, seed) for algo, seed in jobs]
        for (algo, seed), record in zip(jobs, records):
            stem = f"{algo}_seed{seed}"
            save_run(record, out / f"{stem}.csv", out / f"{stem}.json")
            manifest["runs"].append({"algo": algo, "seed": seed, "csv": f"{stem}.csv", "meta": f"{stem}.json"})
        manifest["status"] = "complete"
    except Exception as exc:
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        _write_manifest(out, manifest)
        raise
    _write_manifest(out, manifest)
    return out


def _write_manifest(out: Path, manifest: dict):
    write_atomic(out / "manifest.json", json_text(manifest))


def _load_dir(run_dir) -> dict:
    run_dir = Path(run_dir)
    with open(run_dir / "manifest.json", "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    runs = []
    for entry in manifest["runs"]:
        rows = load_run_csv(run_dir / entry["csv"])
        meta = load_run_meta(run_dir / entry["meta"])
        runs.append({"algo": entry["algo"], "seed": entry["seed"], "rows": rows, "meta": meta})
    return {"dir": str(run_dir), "manifest": manifest, "runs": runs}


def _check_compatible(loaded: list):
    base = loaded[0]["manifest"]
    for other in loaded[1:]:
        man = other["manifest"]
        if man["env"] != base["env"] or man["eval"] != base["eval"]:
            raise ValueError(
                f"manifest mismatch: {other['dir']} has different env or eval settings "
                f"than {loaded[0]['dir']}"
            )


class ComparisonReport:
    """Sample counts needed to shrink the initial error by fixed fractions."""

    def __init__(self, entries: list):
        self.entries = entries

    def to_csv_text(self) -> str:
        cols = ["dir", "algo", "initial_error"]
        for tag in COMPLEXITY_FRACTIONS.values():
            cols += [f"samples_to_{tag}", f"ratio_{tag}"]
        cols.append("note")
        lines = [",".join(cols)]
        for e in self.entries:
            row = [e["dir"], e["algo"], format(e["initial_error"], ".17g")]
            for tag in COMPLEXITY_FRACTIONS.values():
                val = e[f"samples_to_{tag}"]
                row.append("not_reached" if val is None else str(val))
                ratio = e[f"ratio_{tag}"]
                row.append("" if ratio is None else format(ratio, ".6g"))
            row.append(e["note"])
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        header = ["dir", "algo", "initial error"]
        for frac in COMPLEXITY_FRACTIONS:
            header += [f"samples to {frac:g}x", "ratio"]
        header.append("note")
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for e in self.entries:
            row = [e["dir"], e["algo"], f"{e['initial_error']:.4g}"]
            for tag in COMPLEXITY_FRACTIONS.values():
                val = e[f"samples_to_{tag}"]
                row.append("not reached" if val is None else str(val))
                ratio = e[f"ratio_{tag}"]
                row.append("" if ratio is None else f"{ratio:.3g}")
            row.append(e["note"])
            lines.append("| " + " | ".join(row) + " |")
        return "\n".join(lines) + "\n"


def _samples_to_reach(rows, initial: float, frac: float):
    target = frac * initial
    for row in rows:
        if row.mu_error <= target:
            return row.cum_samples
    return None


def _median(values: list):
    vals = sorted(v if v is not None else math.inf for v in values)
    mid = len(vals) // 2
    med = vals[mid] if len(vals) % 2 == 1 else 0.5 * (vals[mid - 1] + vals[mid])
    return None if math.isinf(med) else int(med)


def compare(run_dirs) -> ComparisonReport:
    """Median-over-seeds cumulative samples to reach 1/2 and 1/10 of the
    initial error, per algorithm, across run directories."""
    loaded = [_load_dir(d) for d in run_dirs]
    if not loaded:
        raise ValueError("no run directories given")
    _check_compatible(loaded)
    # Initial errors must agree across algos within each (dir, seed): every
    # algorithm starts from the zero function and shares evaluation states.
    for item in loaded:
        by_seed: dict = {}
        for run in item["runs"]:
            init = run["meta"]["initial_error"]
            key = run["seed"]
            if key in by_seed and abs(by_seed[key] - init) > 1e-12 * max(1.0, abs(init)):
                raise ValueError(f"inconsistent initial errors in {item['dir']} for seed {key}")
            by_seed.setdefault(key, init)
    entries = []
    baselines: dict = {}
    for item in loaded:
        algos = []
        for run in item["runs"]:
            if run["algo"] not in algos:
                algos.append(run["algo"])
        for algo in algos:
            runs = [r for r in item["runs"] if r["algo"] == algo]
            inits = [r["meta"]["initial_error"] for r in runs]
            entry = {
                "dir": item["dir"],
                "algo": algo,
                "initial_error": inits[0],
                "note": "exact dynamics" if algo == "vi" else "",
            }
            for frac, tag in COMPLEXITY_FRACTIONS.items():
                per_seed = [
                    _samples_to_reach(r["rows"], r["meta"]["initial_error"], frac) for r in runs
                ]
                if algo == "vi":
                    med = 0
                else:
                    med = _median(per_seed)
                entry[f"samples_to_{tag}"] = med
                base = baselines.setdefault((algo, tag), med)
                if med is None or base is None:
                    ratio = None
                elif base == 0:
                    ratio = 1.0 if med == 0 else None
                else:
                    ratio = med / base
                entry[f"ratio_{tag}"] = ratio
            entries.append(entry)
    return ComparisonReport(entries)


def plot(run_dirs, out_path) -> str:
    """Write an SVG of log10 error vs iteration, one polyline per run."""
    loaded = [_load_dir(d) for d in run_dirs]
    if not loaded:
        raise ValueError("no run directories given")
    _check_compatible(loaded)
    series = []
    for item in loaded:
        for run in item["runs"]:
            iters = [0] + [r.iter for r in run["rows"]]
            errors = [run["meta"]["initial_error"]] + [r.mu_error for r in run["rows"]]
            series.append(
                {
                    "algo": run["algo"],
                    "label": f"{run['algo']}/seed{run['seed']}",
                    "iters": iters,
                    "errors": errors,
                }
            )
    svg = render_log_error_plot(series, title=loaded[0]["manifest"]["env"].get("kind", ""))
    write_atomic(out_path, svg)
    return svg


def spectra(config_path, depth: int, out_path=None) -> list:
    """Restricted spectral values along Krylov bases of depth 0..depth."""
    if depth < 0:
        raise ConfigError(f"--depth: must be >= 0, got {depth}")
    cfg = ExperimentConfig.from_file(config_path)
    env = build_env(cfg)
    if not isinstance(env, TabularModel):
        raise ConfigError("env.kind: spectra requires a tabular environment")
    if not is_reversible(env, envs.stationary_law(env)):
        raise ConfigError("env.kind: spectra requires a reversible chain")
    rows = spectra_table(env, depth)
    text_lines = ["t,mineig,maxeig,theorem1_bound"]
    for t, lo, hi, bound in rows:
        text_lines.append(f"{t},{format(lo, '.17g')},{format(hi, '.17g')},{format(bound, '.17g')}")
    text = "\n".join(text_lines) + "\n"
    if out_path is None:
        out_path = Path(cfg.out_dir) / "spectra.csv"
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    write_atomic(out_path, text)
    return rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kbb", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config")

    p_cmp = sub.add_parser("compare", help="sample-complexity comparison table")
    p_cmp.add_argument("dirs", nargs="+")
    p_cmp.add_argument("--out", default=None, help="write CSV table here")

    p_plot = sub.add_parser("plot", help="SVG log-error plot")
    p_plot.add_argument("dirs", nargs="+")
    p_plot.add_argument("--out", required=True)

    p_spectra = sub.add_parser("spectra", help="restricted spectral values table")
    p_spectra.add_argument("config")
    p_spectra.add_argument("--depth", type=int, required=True)
    p_spectra.add_argument("--out", default=None)
    return parser


def _threads() -> int:
    """Worker-pool size from KBB_THREADS (default 1)."""
    raw = os.environ.get("KBB_THREADS", "1")
    try:
        threads = int(raw)
        if threads >= 1:
            return threads
    except ValueError:
        pass
    raise ConfigError(f"KBB_THREADS: must be an integer >= 1, got {raw!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out_override = os.environ.get("KBB_OUT_DIR")
    try:
        threads = _threads()
        if args.command == "run":
            out = run_experiment(args.config, out_dir=out_override, threads=threads)
            print(f"run complete: {out}")
        elif args.command == "compare":
            report = compare(args.dirs)
            print(report.to_markdown(), end="")
            if args.out:
                write_atomic(args.out, report.to_csv_text())
        elif args.command == "plot":
            plot(args.dirs, args.out)
            print(f"wrote {args.out}")
        elif args.command == "spectra":
            rows = spectra(args.config, args.depth, args.out)
            print(f"computed {len(rows)} spectral rows")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
