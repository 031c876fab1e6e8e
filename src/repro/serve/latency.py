"""Interval latency recording for the serving daemon.

The daemon measures one wall-clock latency per served request (enqueue
to response-ready, so queueing delay is included) and reports
percentiles per reporting interval.  :class:`LatencyRecorder` is the
accumulation side: it buckets samples between snapshots and emits
:class:`~repro.sim.metrics.LatencyReport` instances, whose associative
:meth:`~repro.sim.metrics.LatencyReport.merge` folds the interval
reports into the run total -- the total always equals one report
computed over every sample, however the intervals were cut.
"""

from __future__ import annotations

import time

from repro.sim.metrics import LatencyReport

__all__ = ["LatencyRecorder"]


class LatencyRecorder:
    """Accumulates latency samples and shed/error counts between snapshots."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self._samples: list[float] = []
        self._shed = 0
        self._errors = 0
        self._interval_started = clock()
        self._total = LatencyReport(samples=())

    def observe(self, seconds: float) -> None:
        """Record one served request's latency."""
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        self._samples.append(float(seconds))

    def count_shed(self) -> None:
        """Record one request rejected by admission control."""
        self._shed += 1

    def count_error(self) -> None:
        """Record one request that failed outright."""
        self._errors += 1

    def snapshot(self) -> LatencyReport:
        """Emit the current interval's report and start a new interval.

        The emitted report is also merged into :meth:`total`, so the
        lifetime view is maintained through exactly the associative-merge
        path the tests pin.
        """
        now = self._clock()
        report = LatencyReport.from_values(
            self._samples,
            shed=self._shed,
            errors=self._errors,
            duration_seconds=max(0.0, now - self._interval_started),
        )
        self._samples = []
        self._shed = 0
        self._errors = 0
        self._interval_started = now
        self._total = self._total.merge(report)
        return report

    def total(self) -> LatencyReport:
        """Lifetime report: every snapshotted interval plus the open one.

        The open interval is folded in without resetting it, so calling
        ``total()`` never perturbs the interval cadence.
        """
        open_interval = LatencyReport.from_values(
            self._samples,
            shed=self._shed,
            errors=self._errors,
            duration_seconds=max(0.0, self._clock() - self._interval_started),
        )
        return self._total.merge(open_interval)
