"""Speed gauge: a fixed slice of reference work timed between operations.

The machine the benchmark runs on is a shared host whose speed drifts by
±20-30% over tens of seconds; identical work takes up to twice as long at
one moment as at another. Every timing the benchmark reports is therefore
taken together with slices of this fixed reference work, timed right
before and after it, and rescaled to the speed at which one slice takes
``NOMINAL_SLICE_S``:

    time at reference speed = wall time x NOMINAL_SLICE_S / slice time

The slice is NumPy and interpreter work of the same kind as ngmlimit's
(a row-by-row LU with partial pivoting and ``eigvals`` on small dense
matrices), so both slow down together; it never calls ngmlimit, so a
change to the library moves the rescaled times in full. Its matrices come
from a fixed seed, not from ``--seed``, so the slice is the same work in
every run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Seconds one slice took on the machine the benchmark was built on, at its
# usual speed (a 2-vCPU Intel Xeon VM; Python 3.11, NumPy 2.4). Only a
# scale: rescaled times are in seconds of a machine running at that speed.
NOMINAL_SLICE_S = 1.6e-3
# A slice is timed after the operation that brings the time since the last
# slice to at least this much.
SLICE_EVERY_S = 0.05
# The speed for a stretch of operations is the median of this many slices
# around it (half before, half after).
WINDOW = 4

_rng = np.random.default_rng(20161020)
_MATRICES = [_rng.uniform(-1.0, 1.0, (n, n)) + n * np.eye(n)
             for n in (8, 24, 40)]


def _lu(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]] = a[[p, k]]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a


def time_slice() -> float:
    """Run one slice of reference work; returns its wall seconds."""
    t0 = time.perf_counter()
    for m in _MATRICES:
        _lu(m)
        np.linalg.eigvals(m)
    return time.perf_counter() - t0


def scale_factors(slices: list[float], stretches: int) -> list[float]:
    """``NOMINAL_SLICE_S`` / local slice time for each stretch of work.

    Stretch ``b`` ran between slices ``b`` and ``b + 1``; its local slice
    time is the median of the ``WINDOW`` slices centred on that gap, which
    shrugs off a single slice hit by an interrupt.
    """
    half = WINDOW // 2
    factors = []
    for b in range(stretches):
        window = slices[max(0, b + 1 - half):b + 1 + half]
        factors.append(NOMINAL_SLICE_S / statistics.median(window))
    return factors
