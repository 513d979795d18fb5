"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload nonlinear-trees --seed 1 --seconds 30 --trace 0

Workloads: nonlinear-trees, arch-trajectory, tabular-walk.  The workload
body runs in a fresh single process (``child.py``) with KBB_THREADS=1 and
one BLAS thread, against the library in ``src/`` beside this directory.
``wall_s``, ``kbb_s`` and ``fvi_s`` are in reference seconds: raw times
scaled by the machine speed measured while they run (see ``speed.py``); the
raw times are kept in the result files.  ``setup_s`` is raw: the median
over that process and four set-up-only processes started around it.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics.  Either way the last line of standard output is one JSON object
with keys correct, attempted, failed and metrics, and the full result is
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The names in workloads.WORKLOADS, repeated so this process never imports kbb.
WORKLOADS = ("nonlinear-trees", "arch-trajectory", "tabular-walk")
SETUP_RUNS_BEFORE = 2
SETUP_RUNS_AFTER = 2
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "ref_s",
    "setup_s": "s",
    "kbb_s": "ref_s",
    "fvi_s": "ref_s",
    "peak_rss_mb": "MB",
    "kbb_final_error": "mu-norm",
    "fvi_final_error": "mu-norm",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(KBB_THREADS="1", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(args: list, timeout: float) -> dict:
    """Start child.py, wait for it, and return the JSON on its last stdout line."""
    cmd = [sys.executable, str(HERE / "child.py"), "--spawned-at", repr(time.monotonic()), *args]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout,
                          text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "kbb" / "__init__.py").is_file():
        print(f"benchmark error: library source not found at {ROOT / 'src' / 'kbb'}", file=sys.stderr)
        return 2

    out_root = HERE / "out"
    wl_dir = out_root / args.workload
    wl_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    trace_file = out_root / f"{stem}-trace.json"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", str(wl_dir)]
    setup_only = [*common, "--seconds", str(args.seconds), "--setup-only"]
    body_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        body_args += ["--trace-file", str(trace_file)]
    # Set-up-only processes are needed for setup_s, which a traced run does not report.
    setup_runs = (0, 0) if args.trace else (SETUP_RUNS_BEFORE, SETUP_RUNS_AFTER)
    try:
        setups = [run_child(setup_only, SETUP_TIMEOUT_S) for _ in range(setup_runs[0])]
        body = run_child(body_args, timeout=3 * args.seconds + SETUP_TIMEOUT_S)
        setups += [run_child(setup_only, SETUP_TIMEOUT_S) for _ in range(setup_runs[1])]
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if "kbb_final_error" not in body:
        print("benchmark error: no round completed without a failed operation", file=sys.stderr)
        return 1

    if args.trace:
        metrics = body["layers"]
    else:
        body["setup_samples_s"] = [d["setup_s"] for d in setups + [body]]
        values = {**body, "setup_s": statistics.median(body["setup_samples_s"])}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        with open(out_root / f"{stem}-metrics.json", "w", encoding="utf-8") as fh:
            json.dump({**body, "metrics": metrics}, fh, indent=1)
    for msg in body["check_failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not body["check_failures"],
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
