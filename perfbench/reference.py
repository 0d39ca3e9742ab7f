"""A fixed reference computation that gauges the machine's speed at the moment.

The host this benchmark runs on changes speed by 10-30% over minutes, and
every workload slows down and speeds up with it, so a run's raw times move
with the host as much as with the program.  run.py times this
computation in its own process between the samples of a run, and the
timed end-to-end metrics are the workload's times divided by it: the
workload's cost in reference units, which stays put while the whole machine
speeds up or slows down.  Running it outside the sample keeps it out of the
sample's memory and CPU figures.

The computation never touches zqdist and is numpy work on arrays the size
of the workloads' own, far beyond the L2 cache: a 9^6 complex FFT made
afresh each time, like certificate_z9d6's transforms, and block pair scans
of 6000 points in Z_15^5 (differences, squares, reduction mod q, bincount),
like pair_counts.  A tight pure-Python loop was tried and left out: its
time swings more than any workload's, verify_all's included, so dividing by
it overcorrected the numpy workloads.
"""

from __future__ import annotations

import time

import numpy as np

# About 0.2 s per part on a 2-core Xeon VM at 2.1 GHz: long enough that a
# run's median ref_s varies no more than its workload's own timings do.
FFT_REPS = 3
SCAN_BLOCKS = 4


def _transform_part() -> float:
    rng = np.random.default_rng(0)
    acc = 0.0
    for _ in range(FFT_REPS):
        grid = rng.standard_normal((9,) * 6) + 1j * rng.standard_normal((9,) * 6)
        acc += float(np.abs(np.fft.fftn(grid)).sum())
    return acc


def _pair_scan_part() -> np.ndarray:
    pts = np.random.default_rng(1).integers(0, 15, size=(6000, 5))
    block = 2**22 // pts.size
    counts = np.zeros(15, dtype=np.int64)
    for lo in range(0, block * SCAN_BLOCKS, block):
        diff = pts[lo : lo + block, None, :] - pts[None, :, :]
        counts += np.bincount(((diff * diff).sum(axis=2) % 15).reshape(-1), minlength=15)
    return counts


def reference_s() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    _transform_part()
    _pair_scan_part()
    return time.perf_counter() - start
