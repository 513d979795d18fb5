"""Run-record persistence round trips."""

import numpy as np
import pytest

from kbb.records import RunRecord, RunRow, load_run_csv, load_run_meta, save_run


def sample_record():
    rec = RunRecord(algo="kbb", initial_error=3.5, config_hash="abc", seeds=[7])
    rec.add_row(iter=1, cum_samples=400, mu_error=1.25, ridge_used=0.0, wall_ms=12.5)
    rec.add_row(iter=2, cum_samples=500, mu_error=0.5, ridge_used=1e-8, wall_ms=9.0)
    rec.meta["rejected_iters"] = [2]
    return rec


def test_csv_round_trip(tmp_path):
    rec = sample_record()
    save_run(rec, tmp_path / "r.csv", tmp_path / "r.json")
    rows = load_run_csv(tmp_path / "r.csv")
    assert rows == rec.rows
    meta = load_run_meta(tmp_path / "r.json")
    assert meta["initial_error"] == 3.5
    assert meta["rejected_iters"] == [2]
    assert meta["algo"] == "kbb"


def test_csv_header_checked(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        load_run_csv(p)


def test_rows_must_be_ordered():
    rec = sample_record()
    with pytest.raises(ValueError):
        rec.add_row(iter=1, cum_samples=600, mu_error=0.1, ridge_used=0.0, wall_ms=1.0)
    with pytest.raises(ValueError):
        rec.add_row(iter=3, cum_samples=400, mu_error=0.1, ridge_used=0.0, wall_ms=1.0)


def test_full_precision_round_trip(tmp_path):
    rec = RunRecord(algo="vi", initial_error=1.0)
    val = 0.1234567891234567
    rec.add_row(iter=1, cum_samples=0, mu_error=val, ridge_used=0.0, wall_ms=0.0)
    save_run(rec, tmp_path / "r.csv", tmp_path / "r.json")
    rows = load_run_csv(tmp_path / "r.csv")
    assert rows[0].mu_error == val


def test_errors_and_samples_arrays():
    rec = sample_record()
    assert np.allclose(rec.errors, [1.25, 0.5])
    assert rec.cum_samples.tolist() == [400, 500]


def test_failed_sidecar_write_leaves_earlier_files(tmp_path):
    csv_path, meta_path = tmp_path / "r.csv", tmp_path / "r.json"
    save_run(sample_record(), csv_path, meta_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    bad = sample_record()
    bad.add_row(iter=3, cum_samples=600, mu_error=0.25, ridge_used=0.0, wall_ms=8.0)
    bad.meta["zz"] = object()
    with pytest.raises(TypeError):
        save_run(bad, csv_path, meta_path)
    # no partial .json, no .tmp file, and the earlier run is intact
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert load_run_meta(meta_path)["rejected_iters"] == [2]
