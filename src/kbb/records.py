"""Per-run iteration traces and their on-disk form.

A run record holds one row per iteration: (iter, cum_samples, mu_error,
ridge_used, wall_ms).  The error at iteration 0 (the zero function) is kept
separately so comparison tooling can normalize against it; it is identical
across algorithms on the same problem.

On disk each run is a CSV with exactly those five columns plus a JSON
sidecar carrying everything needed to reproduce the run.  Every file is
written atomically: a temporary sibling renamed over the target.
"""

from __future__ import annotations

import json
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["RunRow", "RunRecord", "save_run", "load_run_csv", "load_run_meta", "json_text", "write_atomic"]

CSV_COLUMNS = ("iter", "cum_samples", "mu_error", "ridge_used", "wall_ms")


@dataclass(frozen=True)
class RunRow:
    iter: int
    cum_samples: int
    mu_error: float
    ridge_used: float
    wall_ms: float


@dataclass
class RunRecord:
    algo: str
    initial_error: float
    rows: list = field(default_factory=list)
    config_hash: str = ""
    seeds: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def add_row(self, **kwargs):
        row = RunRow(**kwargs)
        if self.rows:
            last = self.rows[-1]
            if row.iter <= last.iter or row.cum_samples < last.cum_samples:
                raise ValueError("rows must be ordered with non-decreasing samples")
        self.rows.append(row)

    @property
    def errors(self) -> np.ndarray:
        return np.asarray([r.mu_error for r in self.rows])

    @property
    def cum_samples(self) -> np.ndarray:
        return np.asarray([r.cum_samples for r in self.rows])

    def to_csv_text(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for r in self.rows:
            lines.append(
                f"{r.iter},{r.cum_samples},{format(r.mu_error, '.17g')},"
                f"{format(r.ridge_used, '.17g')},{format(r.wall_ms, '.17g')}"
            )
        return "\n".join(lines) + "\n"

    def sidecar(self) -> dict:
        return {
            "algo": self.algo,
            "initial_error": self.initial_error,
            "config_hash": self.config_hash,
            "seeds": list(self.seeds),
            **self.meta,
        }


def json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_atomic(path, text: str):
    """Write text to a temporary sibling of path, then rename it over path.

    Each call names its own temporary file, so writers of one path never
    move each other's.  A failed write removes the temporary file and leaves
    any earlier file at path intact.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fh = open(tmp, "x", encoding="utf-8")  # exclusive: only this call removes tmp
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_run(record: RunRecord, csv_path, meta_path):
    # both texts are formed before either file is touched
    csv, meta = record.to_csv_text(), json_text(record.sidecar())
    write_atomic(csv_path, csv)
    write_atomic(meta_path, meta)


def load_run_csv(path) -> list:
    """Rows of a persisted run as RunRow objects."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected run CSV header: {header}")
        for line in fh:
            it, cum, err, ridge, wall = line.strip().split(",")
            rows.append(
                RunRow(
                    iter=int(it),
                    cum_samples=int(cum),
                    mu_error=float(err),
                    ridge_used=float(ridge),
                    wall_ms=float(wall),
                )
            )
    return rows


def load_run_meta(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
