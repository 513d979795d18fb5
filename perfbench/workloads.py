"""The pinned workloads: their inputs, one round of operations, and checks.

A round is the unit a run repeats until its time is up.  Every round of a
run makes the same calls on the same inputs, so the round results must
agree bit for bit.  Model and regressor settings are pinned in the config
texts below; the benchmark seed only chooses the algorithm seeds.

Library functions are called through their module attribute at call time,
so the wrappers that ``spans.install`` puts in place see every call.
"""

from __future__ import annotations

import os
import shutil
import statistics
from pathlib import Path

import numpy as np

from kbb import algorithms, cli, config, diagnostics, envs

import checks

# Model, budget and regressor settings of the nonlinear-trees workload: the
# criterion-11 system with depth-5 boosted trees, 200 per fit, cut to a
# 4-iteration, 1000-sample run.
NONLINEAR_CONFIG = """\
env.kind = nonlinear
env.gamma = 0.99
env.seed = 11
algos = kbb,fvi
seeds = {seeds}
budget.n_per_iter = 1000
budget.max_iters = 4
budget.first_iter_multiplier = 4
budget.shared_data = true
regressor.kind = boosted_trees
regressor.n_trees = 200
regressor.max_depth = 5
regressor.min_leaf = 50
eval.n_eval = 5000
eval.seed = 99
out_dir = {out_dir}
"""

# ARCH with a light tree regressor; LSTD draws its own dataset each
# iteration (shared_data = false), so KBB draws twice what FVI draws per
# iteration and FVI gets twice the samples per iteration to match.
ARCH_CONFIG = """\
env.kind = arch
env.d = 5
env.q = 0.5
env.gamma = 0.9
env.seed = 10
algos = kbb,fvi
seeds = {seeds}
budget.n_per_iter = 1000
budget.max_iters = 3
budget.first_iter_multiplier = 4
budget.shared_data = false
regressor.kind = boosted_trees
regressor.n_trees = 30
regressor.max_depth = 3
regressor.min_leaf = 300
eval.n_eval = 2000
eval.seed = 99
out_dir = {out_dir}
"""

# `kbb run` on the criterion-7 circular walk at n = 400 (even: see the
# FOUND note on odd n in CHANGES.md), then spectra and the certificate.
TABULAR_CONFIG = """\
env.kind = circular
env.n = 400
env.gamma = 0.9
env.seed = 1
algos = vi,fvi,kbb
seeds = {seeds}
budget.n_per_iter = 100000
budget.max_iters = 6
budget.first_iter_multiplier = 4
budget.shared_data = true
regressor.kind = tabular_mean
eval.n_eval = 1000
eval.seed = 99
out_dir = {out_dir}
"""
TABULAR_DEPTH = 30


def algo_seeds(seed: int, count: int) -> list:
    return [16 * seed + j for j in range(count)]


class SampledPair:
    """KBB and FVI on a continuous model, alternating seed by seed."""

    def __init__(self, name, config_text, n_seeds, truth_fn, seed, out_dir):
        self.name = name
        self.seeds = algo_seeds(seed, n_seeds)
        self.out_dir = Path(out_dir)
        self.config_text = config_text.format(seeds=",".join(map(str, self.seeds)), out_dir=self.out_dir)
        self.truth_fn = truth_fn

    def setup(self):
        self.cfg = config.ExperimentConfig.from_text(self.config_text)
        self.env = config.build_env(self.cfg)
        self.truth = envs.true_value(self.env)
        b = self.cfg.budget
        # FVI matches KBB's cumulative samples at every iteration.
        draws = 1 if b.shared_data else 2
        self.fvi_budget = algorithms.IterationBudget(
            n_per_iter=draws * b.n_per_iter, max_iters=b.max_iters,
            first_iter_multiplier=b.first_iter_multiplier, shared_data=True,
        )
        self.draws_per_iter = draws

    def prepare(self):
        pass

    def round(self, op) -> dict:
        cfg = self.cfg
        common = dict(truth=self.truth, n_eval=cfg.eval_n, eval_seed=cfg.eval_seed)
        out = {"kbb": [], "fvi": []}
        for s in self.seeds:
            rec = op("run_kbb", algorithms.run_kbb, self.env, cfg.regressor, cfg.budget, seed=s, **common)
            if rec is not None:
                out["kbb"].append(checks.summarize_record(rec, s))
            rec = op("run_fvi", algorithms.run_fvi, self.env, cfg.regressor, self.fvi_budget, seed=s, **common)
            if rec is not None:
                out["fvi"].append(checks.summarize_record(rec, s))
        return out

    def digest(self, raw: dict) -> dict:
        return raw

    def finals(self, digest: dict) -> tuple:
        return (
            statistics.median(r["errors"][-1] for r in digest["kbb"]),
            statistics.median(r["errors"][-1] for r in digest["fvi"]),
        )

    def check(self, digests: list) -> list:
        cfg, b = self.cfg, self.cfg.budget
        states = envs.stationary_states(self.env, cfg.eval_n, cfg.eval_seed)
        expected_init = float(np.sqrt(np.mean(self.truth_fn(self.env)(states) ** 2)))
        kbb_cum = checks.expected_cum_samples(b.n_per_iter, b.max_iters, b.first_iter_multiplier,
                                              self.draws_per_iter)
        fvi_cum = checks.expected_cum_samples(self.fvi_budget.n_per_iter, b.max_iters,
                                              b.first_iter_multiplier, 1)
        fails = []
        for d in digests:
            fails += checks.check_initial_errors(d["kbb"] + d["fvi"], expected_init)
            for run in d["kbb"]:
                fails += checks.check_cum_samples(run, kbb_cum)
            for run in d["fvi"]:
                fails += checks.check_cum_samples(run, fvi_cum)
            fails += checks.check_kbb_beats_fvi(d["kbb"], d["fvi"])
        fails += checks.check_repeatable([self.finals(d) for d in digests])
        return fails


class TabularWalk:
    """`kbb run` with vi,fvi,kbb once per seed, then spectra and the certificate.

    One `kbb run` per seed (each into its own run directory) makes FVI and
    KBB alternate seed by seed; a single run over all seeds would run every
    FVI seed before the first KBB seed.
    """

    name = "tabular-walk"

    def __init__(self, seed, out_dir):
        self.seeds = algo_seeds(seed, 5)
        self.out_dir = Path(out_dir)
        self.spectra_path = self.out_dir / "spectra.csv"
        self.threads = int(os.environ.get("KBB_THREADS", "1"))

    def run_dir(self, seed) -> Path:
        return self.out_dir / "run" / f"seed{seed}"

    def config_path(self, seed) -> Path:
        return self.out_dir / f"tabular-walk-seed{seed}.cfg"

    def setup(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for s in self.seeds:
            text = TABULAR_CONFIG.format(seeds=s, out_dir=self.run_dir(s))
            self.config_path(s).write_text(text, encoding="utf-8")
        self.cfg = config.ExperimentConfig.from_file(self.config_path(self.seeds[0]))
        self.env = config.build_env(self.cfg)
        self.truth = envs.true_value(self.env)

    def prepare(self):
        shutil.rmtree(self.out_dir / "run", ignore_errors=True)
        if self.spectra_path.exists():
            self.spectra_path.unlink()

    def round(self, op) -> dict:
        runs = [s for s in self.seeds
                if op("run_experiment", cli.run_experiment, self.config_path(s), out_dir=self.run_dir(s),
                      threads=self.threads) is not None]
        spectra = op("spectra", cli.spectra, self.config_path(self.seeds[0]), TABULAR_DEPTH, self.spectra_path)
        cert = op("check_theorem1_rate", diagnostics.check_theorem1_rate, self.env, TABULAR_DEPTH)
        return {"runs": runs, "spectra": spectra is not None, "cert": cert}

    def digest(self, raw: dict) -> dict:
        parsed = {s: checks.read_run_dir(self.run_dir(s)) for s in raw["runs"]}
        return {
            "parsed": parsed,
            "runs": [r for p in parsed.values() for r in checks.run_dir_summaries(p)],
            "spectra": checks.read_spectra_csv(self.spectra_path) if raw["spectra"] else None,
            "cert": raw["cert"],
        }

    def _runs(self, digest, algo):
        return [r for r in digest["runs"] if r["algo"] == algo]

    def finals(self, digest: dict) -> tuple:
        return (
            statistics.median(r["errors"][-1] for r in self._runs(digest, "kbb")),
            statistics.median(r["errors"][-1] for r in self._runs(digest, "fvi")),
        )

    def check(self, digests: list) -> list:
        cfg, b = self.cfg, self.cfg.budget
        n, gamma = self.env.n_states, self.env.gamma
        v = checks.tabular_truth(n, gamma, self.env.reward)
        expected_init = float(np.sqrt(np.mean(v**2)))  # the walk is doubly stochastic: mu is uniform
        sampled_cum = checks.expected_cum_samples(b.n_per_iter, b.max_iters, b.first_iter_multiplier, 1)
        fails = []
        for d in digests:
            for s, parsed in d["parsed"].items():
                fails += checks.check_run_dir(parsed, cfg.algos, [s], b.max_iters)
            fails += checks.check_initial_errors(d["runs"], expected_init)
            for run in self._runs(d, "kbb") + self._runs(d, "fvi"):
                fails += checks.check_cum_samples(run, sampled_cum)
            for run in self._runs(d, "vi"):
                fails += checks.check_cum_samples(run, [0] * b.max_iters)
                fails += checks.check_vi_ratios(run, gamma)
            fails += checks.check_kbb_beats_fvi(self._runs(d, "kbb"), self._runs(d, "fvi"))
            fails += checks.check_spectra(d["spectra"], n, gamma, TABULAR_DEPTH)
            fails += checks.check_certificate(d["cert"], TABULAR_DEPTH)
        fails += checks.check_repeatable([self.finals(d) for d in digests])
        return fails


WORKLOADS = ("nonlinear-trees", "arch-trajectory", "tabular-walk")


def make(name: str, seed: int, out_dir):
    if name == "nonlinear-trees":
        return SampledPair(name, NONLINEAR_CONFIG, 1, checks.nonlinear_truth, seed, out_dir)
    if name == "arch-trajectory":
        return SampledPair(name, ARCH_CONFIG, 2, checks.arch_truth, seed, out_dir)
    if name == "tabular-walk":
        return TabularWalk(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
