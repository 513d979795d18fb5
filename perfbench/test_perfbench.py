"""Quick self-test of the benchmark's checks and tracer (tiny sizes, a few seconds).

Each correctness check must pass on genuine library output and fail when
fed a result with one thing wrong.
"""

import importlib.util
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
if importlib.util.find_spec("kbb") is None:
    sys.path.insert(0, str(HERE.parent / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import kbb  # noqa: E402
from kbb import algorithms, cli, diagnostics, envs  # noqa: E402
from kbb.regression import RegressorConfig  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

TINY_CONFIG = """\
env.kind = circular
env.n = 20
env.gamma = 0.9
env.seed = 3
algos = vi,fvi,kbb
seeds = 1,2
budget.n_per_iter = 2000
budget.max_iters = 4
regressor.kind = tabular_mean
eval.n_eval = 100
eval.seed = 5
out_dir = unused
"""


def perturbed(run, **changes):
    return {**run, **changes}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("tiny")
    cfg_path = tmp / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    run_dir = cli.run_experiment(cfg_path, out_dir=tmp / "run")
    cli.spectra(cfg_path, 5, tmp / "spectra.csv")
    env = kbb.make_circular_walk(20, 0.9, 3)
    parsed = checks.read_run_dir(run_dir)
    return {
        "env": env,
        "parsed": parsed,
        "runs": checks.run_dir_summaries(parsed),
        "spectra": checks.read_spectra_csv(tmp / "spectra.csv"),
        "cert": diagnostics.check_theorem1_rate(env, 10),
    }


def by_algo(runs, algo):
    return [r for r in runs if r["algo"] == algo]


def test_truths_match_library():
    states = np.random.default_rng(0).normal(size=(50, 3))
    env = kbb.make_nonlinear(0.99, 11)
    np.testing.assert_allclose(checks.nonlinear_truth(env)(states), kbb.true_value(env)(states), rtol=1e-8)
    arch = kbb.make_arch(5, 0.5, 0.9, 10)
    states5 = np.random.default_rng(1).normal(size=(50, 5))
    np.testing.assert_allclose(checks.arch_truth(arch)(states5), kbb.true_value(arch)(states5), rtol=1e-8)
    walk = kbb.make_circular_walk(30, 0.9, 1)
    np.testing.assert_allclose(checks.tabular_truth(30, 0.9, walk.reward), kbb.solve_exact(walk), rtol=1e-10)
    np.testing.assert_array_equal(checks.circular_walk_matrix(30), walk.trans)


def test_initial_error_check(tiny):
    runs = tiny["runs"]
    v = checks.tabular_truth(20, 0.9, tiny["env"].reward)
    expected = float(np.sqrt(np.mean(v**2)))
    assert checks.check_initial_errors(runs, expected) == []
    assert checks.check_initial_errors(runs, expected * (1 + 1e-6))
    bad = [perturbed(runs[0], initial_error=runs[0]["initial_error"] * (1 + 1e-6))] + runs[1:]
    assert checks.check_initial_errors(bad, expected)


def test_continuous_initial_error_is_rms_of_truth():
    env = kbb.make_nonlinear(0.99, 11)
    rec = algorithms.run_fvi(env, RegressorConfig(n_trees=2, max_depth=1),
                             algorithms.IterationBudget(n_per_iter=200, max_iters=1), seed=1,
                             n_eval=300, eval_seed=4)
    states = envs.stationary_states(env, 300, 4)
    expected = float(np.sqrt(np.mean(checks.nonlinear_truth(env)(states) ** 2)))
    run = checks.summarize_record(rec, 1)
    assert checks.check_initial_errors([run], expected) == []
    assert checks.check_initial_errors([run], expected * (1 - 1e-6))


def test_cum_samples_check(tiny):
    expected = checks.expected_cum_samples(2000, 4, 4, 1)
    assert expected == [8000, 10000, 12000, 14000]
    for run in by_algo(tiny["runs"], "kbb") + by_algo(tiny["runs"], "fvi"):
        assert checks.check_cum_samples(run, expected) == []
        assert checks.check_cum_samples(perturbed(run, cum_samples=[8000, 10000, 12000, 14001]), expected)
    assert checks.expected_cum_samples(1000, 2, 4, 2) == [8000, 10000]


def test_kbb_beats_fvi_check(tiny):
    kbb_runs, fvi_runs = by_algo(tiny["runs"], "kbb"), by_algo(tiny["runs"], "fvi")
    assert checks.check_kbb_beats_fvi(kbb_runs, fvi_runs) == []
    assert checks.check_kbb_beats_fvi(fvi_runs, kbb_runs)
    stuck = [perturbed(r, errors=r["errors"][:-1] + [r["initial_error"]]) for r in kbb_runs]
    assert checks.check_kbb_beats_fvi(stuck, fvi_runs)
    fewer = [perturbed(r, cum_samples=r["cum_samples"][:-1] + [1]) for r in fvi_runs]
    assert checks.check_kbb_beats_fvi(kbb_runs, fewer)


def test_vi_ratio_check(tiny):
    (vi, *_) = by_algo(tiny["runs"], "vi")
    assert checks.check_vi_ratios(vi, 0.9) == []
    errs = list(vi["errors"])
    errs[2] = errs[1] * (0.9 + 1e-6)
    assert checks.check_vi_ratios(perturbed(vi, errors=errs), 0.9)


def test_run_dir_check(tiny):
    parsed = tiny["parsed"]
    assert checks.check_run_dir(parsed, ["vi", "fvi", "kbb"], [1, 2], 4) == []
    assert checks.check_run_dir({**parsed, "manifest": {**parsed["manifest"], "status": "failed"}},
                                ["vi", "fvi", "kbb"], [1, 2], 4)
    runs = dict(parsed["runs"])
    runs[("kbb", 2)] = {**runs[("kbb", 2)], "rows": runs[("kbb", 2)]["rows"][:-1]}
    assert checks.check_run_dir({**parsed, "runs": runs}, ["vi", "fvi", "kbb"], [1, 2], 4)
    runs[("kbb", 2)] = {**parsed["runs"][("kbb", 2)], "header": checks.CSV_COLUMNS[:4]}
    assert checks.check_run_dir({**parsed, "runs": runs}, ["vi", "fvi", "kbb"], [1, 2], 4)
    assert checks.check_run_dir(parsed, ["vi", "fvi", "kbb"], [1, 2, 3], 4)


def test_spectra_check(tiny):
    rows = tiny["spectra"]
    assert checks.check_spectra(rows, 20, 0.9, 5) == []
    t, lo, hi, bound = rows[3]
    assert checks.check_spectra(rows[:3] + [(t, lo, hi, bound + 1e-6)] + rows[4:], 20, 0.9, 5)
    t, lo, hi, bound = rows[0]
    moved = lo + 1e-6
    assert checks.check_spectra([(t, moved, hi, 1 - moved**2 / (8 * hi))] + rows[1:], 20, 0.9, 5)
    assert checks.check_spectra(rows[:-1], 20, 0.9, 5)
    t, lo, hi, _ = rows[2]
    assert checks.check_spectra(rows[:2] + [(t, lo, 1.95, 1 - lo**2 / (8 * 1.95))] + rows[3:], 20, 0.9, 5)


def test_certificate_check(tiny):
    rows = tiny["cert"]
    assert checks.check_certificate(rows, 10) == []
    t, bound, _ = rows[1]
    assert checks.check_certificate(rows[:1] + [(t, bound, bound + 1e-6)] + rows[2:], 10)
    assert checks.check_certificate([], 10)


def test_repeatable_check():
    assert checks.check_repeatable([(1.0, 2.0), (1.0, 2.0)]) == []
    assert checks.check_repeatable([(1.0, 2.0), (1.0, 2.0 + 1e-15)])


def test_tracer_self_time_and_restore():
    tr = spans.Tracer()
    tr.enter("outer")
    tr.enter("inner")
    tr.exit()
    tr.exit()
    assert tr.calls == {"outer": 1, "inner": 1}
    assert tr.span_parent == [-1, 0]
    assert abs(tr.self_s["outer"] - (tr.total_s["outer"] - tr.total_s["inner"])) < 1e-12
    original = algorithms.__dict__["run_kbb"], algorithms.__dict__["sample_transitions"]
    restore = spans.install(tr, full=True)
    assert algorithms.run_kbb is not original[0]
    restore()
    assert (algorithms.__dict__["run_kbb"], algorithms.__dict__["sample_transitions"]) == original


def test_tracer_counts_calls_bound_by_name():
    env = kbb.make_nonlinear(0.99, 11)
    cfg = RegressorConfig(n_trees=3, max_depth=2, min_leaf=5)
    budget = algorithms.IterationBudget(n_per_iter=100, max_iters=3, shared_data=False)
    tr = spans.Tracer()
    restore = spans.install(tr, full=True)
    try:
        rec = algorithms.run_kbb(env, cfg, budget, seed=1, n_eval=200, eval_seed=2)
    finally:
        restore()
    assert tr.counts["envs.samples_drawn"] == rec.cum_samples[-1]
    assert tr.calls["envs.sample_transitions"] == 2 * budget.max_iters
    assert tr.calls["regression.fit"] == budget.max_iters
    assert tr.calls["trees.fit"] == cfg.n_trees * budget.max_iters
    assert tr.counts["algorithms.evaluator_builds"] == 1
    assert tr.calls["envs.stationary_states"] == 2  # the nonlinear model draws through its inner LQR
    layers = spans.layer_values(tr.snapshot(), 1, 1.0)
    assert layers["trees.best_split_calls"]["value"] > 0
    assert layers["lstd.solve_calls"]["value"] == budget.max_iters


def test_speed_probe_samples_and_leaves_its_time_out(monkeypatch):
    monkeypatch.setattr(speed, "INTERVAL_S", 0.01)
    handler = signal.getsignal(signal.SIGALRM)
    with speed.SpeedProbe() as probe:
        raw0, work0 = time.perf_counter(), probe.clock()
        while time.perf_counter() < raw0 + 0.3:
            sum(range(1000))
        raw1, work1 = time.perf_counter(), probe.clock()
    assert signal.getsignal(signal.SIGALRM) == handler
    assert len(probe.sample_s) >= 5
    assert abs((raw1 - raw0) - (work1 - work0) - probe.spent_s) < 0.01
    assert 0.0 < probe.speed(work0, work1) < 100.0


def test_benchmark_refuses_to_run_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tabular-walk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
