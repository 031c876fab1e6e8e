"""Host-speed calibration and the small statistics the harness needs.

The sandbox this benchmark runs in changes speed by 30-70 % in regimes
that last tens of seconds to minutes (measured: the same repetition's
wall time has an inter-quartile spread of 0.28 of its median across
20 s windows).  CPU time moves with wall time, so it is neither steal
nor scheduling -- the whole core gets slower.  A fixed kernel with the
same instruction mix as the package (interpreter loop + small numpy
calls, nothing multi-threaded) run right before and after every
repetition tracks those regimes: repetition time divided by adjacent
kernel time has a spread of 0.04.

So every wall-clock metric is reported **at reference host speed**:
``raw * REFERENCE_CAL_MS / measured_cal_ms`` for a time (the inverse for
a rate), per repetition, before the median is taken.  The raw values are
printed next to them (``run.raw_*`` in the per-layer set), and
``machine.cal_ms`` / ``machine.cal_spread`` / ``run.disturbed`` say how
far and how unevenly the host was from the reference during the run.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

__all__ = [
    "CAL_BUDGET_S",
    "REFERENCE_CAL_MS",
    "calibrate",
    "median",
    "percentile",
    "supported_percentile",
    "to_reference",
]

#: The kernel's time on a quiet host of the class the baseline was
#: recorded on.  Only a scale: it cancels in every comparison of two runs.
REFERENCE_CAL_MS = 5.0

#: How long one calibration reading integrates kernel passes.
CAL_BUDGET_S = 0.1

_CAL_MATRIX = np.random.default_rng(0).random((64, 64))


def calibrate(budget_s: float = CAL_BUDGET_S) -> float:
    """Mean seconds per pass of the calibration kernel over ``budget_s``.

    The host's speed also flickers on a scale of tens of milliseconds,
    which a repetition of a second averages out and one 5 ms pass does
    not: single passes spread by up to 1.7x (p90/p10) within a run whose
    repetitions agreed within 5 %.  So a reading integrates passes for
    about a tenth of a second, like the repetitions it is compared to.
    """
    started = time.perf_counter()
    passes = 0
    while True:
        _kernel()
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= budget_s:
            return elapsed / passes


def _kernel() -> float:
    """One pass: an interpreter loop over a dict, then small-array numpy calls.

    That is what the package's hot paths are made of.  Parts that stress
    memory instead (sequential passes, random gathers, pointer chasing,
    fresh allocations) were measured against every workload as well:
    each made the restated timings spread *more*, alone or mixed in.
    """
    matrix = _CAL_MATRIX
    started = time.perf_counter()
    total = 0.0
    table = {}
    for i in range(20000):
        table[i & 255] = (i, total)
        total += i * 0.5
    for i in range(170):
        scaled = matrix * matrix + matrix
        picked = np.flatnonzero(scaled[i & 63] > 0.5)
        order = np.argsort(scaled[i & 63])
        running = np.cumsum(scaled[:, i & 63])
        total += float(scaled[0, 0]) + picked.size + int(order[0]) + float(running[-1])
    return time.perf_counter() - started


def to_reference(seconds: float, cal_seconds: float) -> float:
    """A measured duration restated at reference host speed."""
    return seconds * (REFERENCE_CAL_MS / 1e3) / cal_seconds


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (a value some sample actually had)."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def supported_percentile(values) -> tuple[float, float]:
    """The highest of p50/p90/p99/p999 with >= 10 samples beyond it.

    Returns ``(q, value)``; falls back to the median on tiny samples.
    """
    n = len(values)
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return q, percentile(values, q)
    return 0.5, percentile(values, 0.5)
