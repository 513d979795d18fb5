"""Run a batch of benchmark runs and summarise the spread of each metric.

Usage, from the repository root:

    python3 perfbench/batch.py --seeds 1-10 --seconds 30 --out perfbench/out/batch-a.jsonl
    python3 perfbench/batch.py --summarize perfbench/out/batch-a.jsonl

It runs every workload untraced, seed by seed.  Each run's result line is
appended to the JSON-lines file as soon as it ends, so an interrupted batch
keeps what it has.  The summary gives, per
workload and end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_batch(seeds, seconds, out_path):
    with open(out_path, "a", encoding="utf-8") as fh:
        for seed in seeds:
            for wl in WORKLOADS:
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{wl} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    continue
                result = json.loads(lines[-1])
                fh.write(json.dumps({"workload": wl, "seed": seed, **result}) + "\n")
                fh.flush()
                print(f"{wl} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)


def summarize(path) -> str:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line]
    lines = ["| workload | metric | n | median | Q1 | Q3 | spread | bound |", "|---|---|---|---|---|---|---|---|"]
    for wl in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == wl]
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            lines.append(f"| {wl} | {name} | {len(vals)} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                         f"{(q3 - q1) / med:.3f} | {bounds.get(name, '')} |")
        failed = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        lines.append(f"| {wl} | correct / failed share | {len(runs)} | {correct} / {failed} | | | | |")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--out", default=str(HERE / "out" / "batch.jsonl"))
    p.add_argument("--summarize", default=None, help="only summarise this JSON-lines file")
    args = p.parse_args(argv)
    if args.summarize:
        print(summarize(args.summarize))
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    run_batch(parse_seeds(args.seeds), seconds, args.out)
    print(summarize(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
