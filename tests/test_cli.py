"""Config parsing, the experiment runner, comparison, plots, spectra."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbb.cli import compare, main, plot, run_experiment, spectra
from kbb.config import ConfigError, ExperimentConfig, build_env, parse_flat
from kbb.records import load_run_csv, load_run_meta

MINIMAL_VI = """
env.kind = circular
env.n = 50
env.gamma = 0.9
env.seed = 1
algos = vi
seeds = 1
budget.max_iters = 5
out_dir = {out}
"""

SMALL_COMPARISON = """
# small tabular comparison
env.kind = circular
env.n = 30
env.gamma = 0.9
env.seed = 2
algos = vi,fvi,kbb
seeds = 1,2
budget.n_per_iter = 500
budget.max_iters = 4
regressor.kind = tabular_mean
eval.n_eval = 1000
eval.seed = 7
out_dir = {out}
"""


# Each env.kind with the least it needs; every other setting takes its default.
KIND_EXTRAS = [
    ("random_tabular", "env.n = 6\n"),
    ("circular", "env.n = 8\n"),
    ("lqr", ""),
    ("nonlinear", ""),
    ("arch", ""),
]


def kind_config(kind, extra):
    return (
        f"env.kind = {kind}\n{extra}env.gamma = 0.9\nenv.seed = 1\n"
        "algos = vi\nseeds = 1\nbudget.max_iters = 2\nout_dir = x\n"
    )


def write_config(tmp_path, text, name="cfg.txt"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / "runs"))
    return path


class TestConfigParsing:
    def test_flat_parse_and_comments(self):
        kv = parse_flat("a.b = 1  # comment\n\n# full line\nc = x,y\n")
        assert kv == {"a.b": "1", "c": "x,y"}

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_flat("a = 1\na = 2\n")

    def test_unknown_env_kind_names_kind(self):
        text = MINIMAL_VI.replace("circular", "hexagonal")
        with pytest.raises(ConfigError, match="hexagonal"):
            ExperimentConfig.from_text(text.format(out="x"))

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="env.bogus"):
            ExperimentConfig.from_text(MINIMAL_VI.format(out="x") + "env.bogus = 3\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="out_dir"):
            ExperimentConfig.from_text("env.kind = circular\nenv.n = 5\nenv.gamma = 0.9\nenv.seed = 1\nalgos = vi\nseeds = 1\nbudget.max_iters = 2\n")

    def test_unknown_algo(self):
        with pytest.raises(ConfigError, match="qlearning"):
            ExperimentConfig.from_text(MINIMAL_VI.format(out="x").replace("algos = vi", "algos = qlearning"))

    def test_build_env_kinds(self):
        for kind, extra in KIND_EXTRAS:
            build_env(ExperimentConfig.from_text(kind_config(kind, extra)))

    @pytest.mark.parametrize("kind, key", [
        ("lqr", "env.n"), ("arch", "env.n"), ("nonlinear", "env.n"), ("nonlinear", "env.d"),
        ("nonlinear", "env.m"), ("nonlinear", "env.q"), ("circular", "env.q"), ("random_tabular", "env.d"),
        ("lqr", "env.q"), ("arch", "env.m"),
    ])
    def test_env_key_the_kind_does_not_take_named(self, kind, key):
        extra = dict(KIND_EXTRAS)[kind] + f"{key} = 3\n"
        with pytest.raises(ConfigError, match=re.escape(key)):
            ExperimentConfig.from_text(kind_config(kind, extra))

    def test_config_hash_stable(self):
        a = ExperimentConfig.from_text(MINIMAL_VI.format(out="x"))
        b = ExperimentConfig.from_text(MINIMAL_VI.format(out="x"))
        assert a.config_hash() == b.config_hash()

    def test_config_hash_pins(self):
        # the manifests of stored runs carry these hashes, so they must not drift
        pins = {
            "random_tabular": "d63a098c0900a828",
            "circular": "5e8261f26498396b",
            "lqr": "5c7ea13b84879789",
            "nonlinear": "45bbcecdd9891583",
            "arch": "253f884f6fba5a7c",
        }
        for kind, extra in KIND_EXTRAS:
            assert ExperimentConfig.from_text(kind_config(kind, extra)).config_hash() == pins[kind]
        assert ExperimentConfig.from_text(MINIMAL_VI.format(out="x")).config_hash() == "6be5d41d37b6d85a"
        assert ExperimentConfig.from_text(SMALL_COMPARISON.format(out="x")).config_hash() == "8688b4b449fcea49"


KNOWN_KEYS = [
    "env.kind", "env.n", "env.gamma", "env.seed", "env.d", "env.m", "env.q", "algos", "seeds",
    "budget.n_per_iter", "budget.max_iters", "budget.first_iter_multiplier", "budget.shared_data",
    "regressor.kind", "regressor.n_trees", "regressor.max_depth", "regressor.learning_rate",
    "regressor.min_leaf", "regressor.subsample", "eval.n_eval", "eval.seed", "out_dir",
]
VALID_KV = {"env.kind": "circular", "env.n": "8", "env.gamma": "0.9", "env.seed": "1", "algos": "vi",
            "seeds": "1", "budget.max_iters": "2", "out_dir": "x"}
EDGE_VALUES = st.sampled_from([
    "", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "0", "-1", "0.5", "1.5", "3", "0x10",
    "9" * 40, "1,1", "1,,2", ",", "true", "no", "maybe", "circular", "arch", "lqr", "nonlinear",
    "random_tabular", "vi,fvi,kbb", "kbb,kbb", "boosted_trees", "tabular_mean", "=", "#", "\u00e9",
]) | st.text(max_size=12)
FREE_LINE = st.text(max_size=40) | st.builds("{} = {}".format, st.sampled_from(KNOWN_KEYS) | st.text(max_size=12), EDGE_VALUES)


@st.composite
def config_texts(draw):
    """A valid minimal config with entries overridden, dropped, repeated or added."""
    kv = dict(VALID_KV)
    for key in draw(st.lists(st.sampled_from(KNOWN_KEYS), max_size=6)):
        kv[key] = draw(EDGE_VALUES)
    for key in draw(st.lists(st.sampled_from(KNOWN_KEYS), max_size=2)):
        kv.pop(key, None)
    lines = [f"{k} = {v}" for k, v in kv.items()] + draw(st.lists(FREE_LINE, max_size=3))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None)
@given(config_texts() | st.text())
def test_any_config_text_parses_or_raises_config_error(text):
    for parse in (parse_flat, ExperimentConfig.from_text):
        try:
            parse(text)
        except ConfigError:
            pass


class TestRunExperiment:
    def test_minimal_vi_layout(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_VI)
        out = run_experiment(cfg_path)
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert csvs == ["vi_seed1.csv"]
        rows = load_run_csv(out / "vi_seed1.csv")
        assert len(rows) == 5
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["runs"][0]["algo"] == "vi"

    def test_rerun_reproduces_csvs_except_timing(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_COMPARISON)
        out1 = run_experiment(cfg_path, out_dir=tmp_path / "r1")
        out2 = run_experiment(cfg_path, out_dir=tmp_path / "r2")
        for p1 in sorted(out1.glob("*.csv")):
            p2 = out2 / p1.name
            strip = lambda text: re.sub(r"[^,\n]*$", "", text, flags=re.M)
            assert strip(p1.read_text()) == strip(p2.read_text())

    def test_manifest_reexecution(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_VI)
        out = run_experiment(cfg_path, out_dir=tmp_path / "orig")
        manifest = json.loads((out / "manifest.json").read_text())
        # re-execute from the manifest's stored config text alone
        cfg2 = tmp_path / "from_manifest.txt"
        cfg2.write_text(manifest["config_text"])
        out2 = run_experiment(cfg2, out_dir=tmp_path / "redo")
        a = (out / "vi_seed1.csv").read_text().splitlines()
        b = (out2 / "vi_seed1.csv").read_text().splitlines()
        # identical except the trailing wall_ms column
        for la, lb in zip(a, b):
            assert la.rsplit(",", 1)[0] == lb.rsplit(",", 1)[0]

    @pytest.mark.parametrize("key, value, named", [
        ("env.kind", "fancy", "fancy"),
        ("seeds", "1,x", "seeds"),
        ("budget.n_per_iter", "0", "budget"),
        ("env.gamma", "1.5", "gamma"),
        ("env.n", "0", "circular walk"),
        ("algos", "vi,vi", "algos"),
        ("seeds", "1,1", "seeds"),
        ("KBB_THREADS", "abc", "KBB_THREADS"),
        ("KBB_THREADS", "0", "KBB_THREADS"),
        ("KBB_THREADS", "-3", "KBB_THREADS"),
        ("eval.n_eval", "0", "eval.n_eval"),
        ("eval.n_eval", "-5", "eval.n_eval"),
        ("eval.seed", "-1", "eval.seed"),
        ("seeds", "-1", "seeds"),
        ("env.kind", "lqr", "env.n"),
        ("env.kind", "nonlinear", "env.n"),
        ("env.q", "0.5", "env.q"),
    ], ids=["env.kind", "seeds", "budget.n_per_iter", "env.gamma", "env.n",
            "algos-repeated", "seeds-repeated", "KBB_THREADS-abc", "KBB_THREADS-0", "KBB_THREADS--3",
            "eval.n_eval-0", "eval.n_eval--5", "eval.seed--1", "seeds--1",
            "env.n-on-lqr", "env.n-on-nonlinear", "env.q-on-circular"])
    def test_cli_exit_codes(self, tmp_path, capsys, monkeypatch, key, value, named):
        # an invalid value exits 2 before any output directory is created
        lines = [ln for ln in MINIMAL_VI.format(out=tmp_path / "o").splitlines()
                 if not ln.startswith(f"{key} =")]
        if key == "KBB_THREADS":
            monkeypatch.setenv(key, value)
        else:
            lines.append(f"{key} = {value}")
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and named in err
        assert not (tmp_path / "o").exists()
        monkeypatch.delenv("KBB_THREADS", raising=False)
        good = write_config(tmp_path, MINIMAL_VI)
        assert main(["run", str(good)]) == 0

    def test_failed_manifest_write_leaves_no_partial_file(self, tmp_path):
        from kbb.cli import _write_manifest

        unserializable = {"status": "complete", "zz": object()}
        with pytest.raises(TypeError):
            _write_manifest(tmp_path, unserializable)
        assert list(tmp_path.iterdir()) == []
        _write_manifest(tmp_path, {"status": "complete"})
        with pytest.raises(TypeError):
            _write_manifest(tmp_path, unserializable)
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
        assert json.loads((tmp_path / "manifest.json").read_text()) == {"status": "complete"}

    def test_missing_config_file_exit_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.txt")]) == 2

    @pytest.mark.parametrize("command", ["run", "spectra"])
    def test_missing_config_file_is_named(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.txt"
        assert main([command, str(missing)] + (["--depth", "3"] if command == "spectra" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(missing) in err

    def test_file_vanishing_mid_run_exit_1(self, tmp_path, capsys, monkeypatch):
        # a FileNotFoundError raised while running is a runtime failure, not a config error
        cfg_path = write_config(tmp_path, MINIMAL_VI)
        import kbb.cli as cli_mod

        def vanish(env, cfg, algo, seed):
            raise FileNotFoundError("synthetic: output directory removed")

        monkeypatch.setattr(cli_mod, "_execute_one", vanish)
        assert main(["run", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith("runtime error: FileNotFoundError")

    def test_thread_pool_matches_sequential(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_COMPARISON)
        seq = run_experiment(cfg_path, out_dir=tmp_path / "seq", threads=1)
        par = run_experiment(cfg_path, out_dir=tmp_path / "par", threads=3)
        strip = lambda text: re.sub(r"[^,\n]*$", "", text, flags=re.M)
        for p1 in sorted(seq.glob("*.csv")):
            assert strip(p1.read_text()) == strip((par / p1.name).read_text())

    def test_ground_truth_built_once_per_experiment(self, tmp_path, monkeypatch):
        from kbb import envs

        built = []
        solve = envs.solve_exact
        monkeypatch.setattr(envs, "solve_exact", lambda env: built.append(env) or solve(env))
        cfg_path = write_config(tmp_path, SMALL_COMPARISON)
        run_experiment(cfg_path, out_dir=tmp_path / "par", threads=3)
        assert len(built) == 1  # six jobs, one model, one dense solve

    def test_env_var_overrides(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, MINIMAL_VI)
        target = tmp_path / "redirected"
        monkeypatch.setenv("KBB_OUT_DIR", str(target))
        monkeypatch.setenv("KBB_THREADS", "2")
        assert main(["run", str(cfg_path)]) == 0
        assert (target / "manifest.json").exists()

    def test_failure_marker_on_runtime_error(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, MINIMAL_VI)
        import kbb.cli as cli_mod

        def boom(env, cfg, algo, seed):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli_mod, "_execute_one", boom)
        assert main(["run", str(cfg_path)]) == 1
        manifest = json.loads((tmp_path / "runs" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert "synthetic failure" in manifest["error"]


def failed_run_dir(tmp_path, monkeypatch):
    """A run directory whose manifest records a failed run with no runs."""
    import kbb.cli as cli_mod

    def boom(env, cfg, algo, seed):
        raise RuntimeError("synthetic failure")

    with monkeypatch.context() as m:
        m.setattr(cli_mod, "_execute_one", boom)
        with pytest.raises(RuntimeError):
            run_experiment(write_config(tmp_path, MINIMAL_VI), out_dir=tmp_path / "failed")
    return tmp_path / "failed"


class TestRunDirectoryInputs:
    """compare and plot read only complete run directories; anything else exits 2 naming it."""

    @pytest.mark.parametrize("command", ["compare", "plot"])
    def test_failed_run_exit_2(self, tmp_path, capsys, monkeypatch, command):
        run_dir = failed_run_dir(tmp_path, monkeypatch)
        out = tmp_path / "result.out"
        assert main([command, str(run_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(run_dir) in err and "'failed'" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compare", "plot"])
    def test_incomplete_run_next_to_complete_exit_2(self, tmp_path, capsys, command):
        good = run_experiment(write_config(tmp_path, MINIMAL_VI), out_dir=tmp_path / "good")
        partial = tmp_path / "partial"
        partial.mkdir()
        manifest = json.loads((good / "manifest.json").read_text())
        (partial / "manifest.json").write_text(json.dumps({**manifest, "status": "incomplete"}))
        assert main([command, str(good), str(partial), "--out", str(tmp_path / "r.out")]) == 2
        err = capsys.readouterr().err
        assert str(partial) in err and "'incomplete'" in err

    @pytest.mark.parametrize("command", ["compare", "plot"])
    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()], ids=["missing", "no-manifest"])
    def test_not_a_run_directory_exit_2(self, tmp_path, capsys, command, make):
        run_dir = tmp_path / "runs"
        make(run_dir)
        assert main([command, str(run_dir), "--out", str(tmp_path / "r.out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(run_dir) in err


class TestCompare:
    def test_self_comparison_unit_ratios(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_COMPARISON)
        out = run_experiment(cfg_path)
        report = compare([out, out])
        assert report.entries, "report should not be empty"
        for entry in report.entries:
            for tag in ("half", "tenth"):
                if entry[f"samples_to_{tag}"] is not None and entry[f"ratio_{tag}"] is not None:
                    assert entry[f"ratio_{tag}"] == pytest.approx(1.0)

    def test_vi_reports_zero_samples_with_footnote(self, tmp_path):
        cfg_path = write_config(tmp_path, SMALL_COMPARISON)
        out = run_experiment(cfg_path)
        report = compare([out])
        vi = [e for e in report.entries if e["algo"] == "vi"][0]
        assert vi["samples_to_half"] == 0
        assert vi["note"] == "exact dynamics"

    def test_mismatched_manifests_rejected(self, tmp_path):
        out1 = run_experiment(write_config(tmp_path, SMALL_COMPARISON, "a.txt"), out_dir=tmp_path / "a")
        other = SMALL_COMPARISON.replace("env.n = 30", "env.n = 40")
        out2 = run_experiment(write_config(tmp_path, other, "b.txt"), out_dir=tmp_path / "b")
        with pytest.raises(ValueError, match="mismatch"):
            compare([out1, out2])

    def test_csv_and_markdown_render(self, tmp_path):
        out = run_experiment(write_config(tmp_path, SMALL_COMPARISON))
        report = compare([out])
        csv_text = report.to_csv_text()
        assert csv_text.splitlines()[0].startswith("dir,algo,initial_error")
        md = report.to_markdown()
        assert md.count("|") > 10


class TestPlot:
    def test_polyline_per_run(self, tmp_path):
        out = run_experiment(write_config(tmp_path, SMALL_COMPARISON))
        svg_path = tmp_path / "plot.svg"
        svg = plot([out], svg_path)
        # 3 algos x 2 seeds = 6 runs = 6 polylines
        assert svg.count("<polyline") == 6
        assert svg_path.exists()

    def test_two_run_input_two_polylines(self, tmp_path):
        out = run_experiment(write_config(tmp_path, MINIMAL_VI))
        svg = plot([out, out], tmp_path / "p.svg")
        assert svg.count("<polyline") == 2

    def test_vi_slope_matches_contraction(self, tmp_path):
        out = run_experiment(write_config(tmp_path, MINIMAL_VI.replace("budget.max_iters = 5", "budget.max_iters = 30")))
        rows = load_run_csv(out / "vi_seed1.csv")
        meta = load_run_meta(out / "vi_seed1.json")
        errs = np.array([meta["initial_error"]] + [r.mu_error for r in rows])
        iters = np.arange(len(errs))
        keep = errs > 1e-12 * errs[0]
        slope = np.polyfit(iters[keep], np.log10(errs[keep]), 1)[0]
        assert abs(slope - np.log10(0.9)) <= 0.02 * abs(np.log10(0.9))

    def test_zero_errors_clamped(self, tmp_path):
        from kbb.svgplot import render_log_error_plot

        svg = render_log_error_plot(
            [{"algo": "vi", "label": "vi", "iters": [0, 1, 2], "errors": [1.0, 0.0, 0.0]}]
        )
        assert "<polyline" in svg  # no math domain error

    def test_empty_input_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            plot([], tmp_path / "x.svg")


class TestSpectra:
    def test_circular_rows_sandwich(self, tmp_path):
        cfg_path = write_config(tmp_path, MINIMAL_VI)
        out_csv = tmp_path / "spectra.csv"
        rows = spectra(cfg_path, 10, out_csv)
        assert len(rows) == 11
        text = out_csv.read_text().splitlines()
        assert text[0] == "t,mineig,maxeig,theorem1_bound"
        for t, lo, hi, _ in rows:
            assert 1 - 0.9 - 1e-9 <= lo <= hi <= 1 + 0.9 + 1e-9

    def test_negative_depth_exit_2(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, MINIMAL_VI)
        assert main(["spectra", str(cfg_path), "--depth", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "--depth" in err
        assert not (tmp_path / "runs").exists()

    def test_non_reversible_exit_2(self, tmp_path):
        text = MINIMAL_VI.replace("circular", "random_tabular")
        cfg_path = write_config(tmp_path, text)
        assert main(["spectra", str(cfg_path), "--depth", "5"]) == 2

    def test_depth_zero_equals_empty_basis(self, tmp_path):
        from kbb.diagnostics import QOperator, restricted_spectral_values
        from kbb.lstd import BasisSet

        cfg_path = write_config(tmp_path, MINIMAL_VI)
        cfg = ExperimentConfig.from_file(cfg_path)
        env = build_env(cfg)
        rows = spectra(cfg_path, 3, tmp_path / "s.csv")
        pair = restricted_spectral_values(QOperator(env), BasisSet([]))
        assert rows[0][1] == pytest.approx(pair.mineig, abs=1e-12)


class TestOutputFiles:
    @pytest.mark.parametrize("command", ["spectra", "plot", "compare"])
    def test_failed_replace_keeps_earlier_file(self, tmp_path, monkeypatch, command):
        # each output goes through the atomic write: a failed rename leaves
        # the earlier file as it was and no temporary sibling behind
        cfg_path = write_config(tmp_path, MINIMAL_VI)
        runs = run_experiment(cfg_path)
        target = tmp_path / "result.out"
        target.write_text("earlier\n")
        argv = {
            "spectra": ["spectra", str(cfg_path), "--depth", "3"],
            "plot": ["plot", str(runs)],
            "compare": ["compare", str(runs)],
        }[command] + ["--out", str(target)]

        def boom(src, dst):
            raise OSError("synthetic rename failure")

        monkeypatch.setattr("kbb.records.os.replace", boom)
        assert main(argv) == 1
        assert target.read_text() == "earlier\n"
        assert list(tmp_path.glob("*.tmp")) == []
