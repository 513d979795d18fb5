"""One workload process: set-up, timed rounds, then the correctness checks.

Started by ``run.py`` as a fresh interpreter.  It prints one JSON object on
the last line of its standard output.  With ``--setup-only`` it stops at
the point where the first algorithm call would be made and reports only
the set-up time: the time since ``--spawned-at`` (a ``time.monotonic``
stamp taken by the parent just before it started this process).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import kbb
import numpy as np

import spans
import speed
import workloads


class Operations:
    """Runs top-level calls, counting attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def __call__(self, name, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is counted and the run goes on
            self.failed += 1
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None


def run_rounds(wl, seconds: float, trace: bool) -> dict:
    """Repeat whole rounds for about ``seconds``.

    A new round starts only while it is expected to end less than half a
    round past the deadline.  The speed probe runs throughout and every time
    is read from its clock.  Untraced, only the top-level algorithm calls
    are wrapped.  With ``trace``, untraced and fully traced rounds alternate
    (at least one of each), so the overhead is measured on the same machine
    phases.
    """
    ops = Operations()
    probe = speed.SpeedProbe()
    clock = probe.clock
    top = spans.Tracer(clock)
    full = spans.Tracer(clock)
    restore_top = None if trace else spans.install(top, full=False)
    plain, traced, digests = [], [], []
    with probe:
        start = clock()
        while True:
            tracing = trace and len(plain) > len(traced)
            wl.prepare()
            failed_before = ops.failed
            restore = spans.install(full, full=True) if tracing else None
            if tracing:
                full.enter("bench.round")
            t0 = clock()
            raw = wl.round(ops)
            t1 = clock()
            if tracing:
                full.exit()
                restore()
                traced.append((t0, t1))
            else:
                plain.append((t0, t1))
            if ops.failed == failed_before:
                digests.append(wl.digest(raw))
            elapsed = clock() - start
            enough = len(plain) >= 1 and (not trace or len(traced) >= 1)
            if enough and elapsed + 0.5 * (t1 - t0) >= seconds:
                break
    if restore_top is not None:
        restore_top()
    return {
        "ops": ops,
        "plain": plain,
        "traced": traced,
        "digests": digests,
        "top": top,
        "full": full,
        "probe": probe,
    }


def normalized(probe, intervals) -> list:
    return [(t1 - t0) * probe.speed(t0, t1) for t0, t1 in intervals]


def mean_speed(probe, intervals) -> float:
    """Time-weighted machine speed over ``intervals``: reference seconds per raw second."""
    return sum(normalized(probe, intervals)) / sum(t1 - t0 for t0, t1 in intervals)


def probe_stats(probe, intervals) -> dict:
    ks = np.asarray(probe.sample_s)
    return {
        "samples": int(ks.size),
        "kernel_median_s": float(np.median(ks)),
        "kernel_q1_q3_s": [float(q) for q in np.percentile(ks, [25, 75])],
        "time_share": probe.spent_s / (probe.spent_s + sum(t1 - t0 for t0, t1 in intervals)),
    }


def untraced_times(res: dict) -> dict:
    """Per-round raw and speed-normalised times of the untraced rounds."""
    probe, top, rounds = res["probe"], res["top"], len(res["plain"])
    out = {
        "raw_wall_s": sum(t1 - t0 for t0, t1 in res["plain"]) / rounds,
        "wall_s": sum(normalized(probe, res["plain"])) / rounds,
        "speed": mean_speed(probe, res["plain"]),
    }
    for metric, name in (("kbb_s", "algorithms.run_kbb"), ("fvi_s", "algorithms.run_fvi")):
        calls = [(top.span_start[i], top.span_end[i])
                 for i, name_id in enumerate(top.span_name) if top.names[name_id] == name]
        out[f"raw_{metric}"] = sum(t1 - t0 for t0, t1 in calls) / rounds
        out[metric] = sum(normalized(probe, calls)) / rounds
    out["probe"] = probe_stats(probe, res["plain"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--trace-file", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    wl = workloads.make(args.workload, args.seed, args.out_dir)
    wl.setup()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    res = run_rounds(wl, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests = res["digests"]
    fails = wl.check(digests) if digests else ["no round completed without a failed operation"]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "kbb_version": kbb.__version__,
        "setup_s": setup_s,
        "attempted": res["ops"].attempted,
        "failed": res["ops"].failed,
        "check_failures": fails,
        "plain_round_walls": [t1 - t0 for t0, t1 in res["plain"]],
        "traced_round_walls": [t1 - t0 for t0, t1 in res["traced"]],
        "peak_rss_mb": peak_rss_mb,
        "system": spans.blas_info(),
    }
    if digests:
        out["kbb_final_error"], out["fvi_final_error"] = wl.finals(digests[0])
    if not args.trace:
        out.update(untraced_times(res))
    else:
        full, probe = res["full"], res["probe"]
        n_traced = len(res["traced"])
        interval = full.snapshot()
        traced_speed = mean_speed(probe, res["traced"])
        overhead = statistics.median(normalized(probe, res["traced"])) / statistics.median(
            normalized(probe, res["plain"])) - 1.0
        layers = spans.layer_values(interval, n_traced, traced_speed)
        layers["bench.trace_overhead"] = {"value": overhead, "unit": "ratio"}
        breakdown = spans.self_time_breakdown(interval, n_traced, traced_speed)
        raw_traced_wall_s = sum(t1 - t0 for t0, t1 in res["traced"]) / n_traced
        out.update(
            layers=layers,
            trace_overhead=overhead,
            self_time_breakdown=breakdown,
            self_time_sum_s=sum(r[1] for r in breakdown),
            raw_traced_wall_s=raw_traced_wall_s,
            traced_wall_s=raw_traced_wall_s * traced_speed,
            speed=traced_speed,
            probe=probe_stats(probe, res["plain"] + res["traced"]),
        )
        if args.trace_file:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                json.dump({**out, "interval": interval, "spans": full.spans_table()}, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
