"""Machine-speed probe that runs alongside the timed rounds.

The small VMs this benchmark runs on change speed by 30-70% for seconds to
minutes at a time while CPU time keeps matching wall time, so a slow phase
cannot be told apart from slower code by timing alone.  The probe measures
the machine's speed while the workload runs: a SIGALRM interval timer
interrupts the workload every ``INTERVAL_S`` and runs a fixed kernel that
does not use kbb (small NumPy calls in a Python loop, interpreter
arithmetic and a stable argsort) twice, timing only the second run.  The
first run reloads the kernel's code and data into the caches, so the timed
run does not depend on what the workload left in them.  Time spent in the
probe is left out of every measured interval through ``clock``.

A normalised duration is an interval's own time scaled by how fast the
kernel ran during it, ``work_s * mean(REFERENCE_KERNEL_S / kernel_s)``: in
reference seconds (unit ``ref_s``), seconds on a machine whose kernel takes
``REFERENCE_KERNEL_S``.  A change that makes kbb faster lowers it like the
raw time; a slow machine phase slows the kernel too and cancels out.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.04

# Warm kernel time in the fast phase of the 2-core VM the reference figures
# in README.md were taken on.  It only sets the scale of reference seconds.
REFERENCE_KERNEL_S = 4.2e-4

_rng = np.random.default_rng(12345)
_SMALL = _rng.standard_normal(4096)
_MAT = _rng.standard_normal((5, 5)) * 0.1


def kernel() -> float:
    """Small NumPy calls in a Python loop, interpreter arithmetic, a stable argsort."""
    v = np.zeros((1, 5))
    for i in range(30):
        v = v @ _MAT + _SMALL[i : i + 5]
    s = 0.0
    for i in range(600):
        s += (i * 0.5) % 7.0
    order = np.argsort(_SMALL, kind="stable")
    return float(v[0, 0] + s + _SMALL[order[0]])


class SpeedProbe:
    """Context manager: samples warm kernel times while active."""

    def __init__(self):
        self.sample_at: list[float] = []
        self.sample_s: list[float] = []
        self.spent_s = 0.0
        self._old_handler = None

    def clock(self) -> float:
        """perf_counter minus the time spent in the probe so far."""
        return time.perf_counter() - self.spent_s

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()  # brings the kernel's code and data back into the caches
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.sample_at.append(t0 - self.spent_s)
        self.sample_s.append(t2 - t1)
        self.spent_s += time.perf_counter() - t0

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def speed(self, start: float, end: float) -> float:
        """Mean of REFERENCE_KERNEL_S / kernel time over the samples taken in
        [start, end] (``clock`` times)."""
        at = np.asarray(self.sample_at)
        inside = (at >= start) & (at <= end)
        if not inside.any():
            raise RuntimeError(f"no speed sample in an interval of {end - start:.3f} s")
        return float(np.mean(REFERENCE_KERNEL_S / np.asarray(self.sample_s)[inside]))
