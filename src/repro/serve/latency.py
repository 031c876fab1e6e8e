"""One latency ledger for the serving daemon and the load generator.

The daemon measures one wall-clock latency per served request (enqueue
to response-ready, so queueing delay is included) and reports
percentiles per reporting interval and for the whole run.
:class:`LatencyRecorder` keeps the run's one list of samples, its shed
and error totals, and a mark where the open interval starts:
:meth:`~LatencyRecorder.snapshot` summarizes the ledger from the mark
on and moves the mark, :meth:`~LatencyRecorder.total` summarizes all of
it.  Both go through the one :func:`summary`, so an interval and the
total agree because they are read from the same ledger.

Percentiles are exact nearest-rank over the kept samples.  The ledger
grows with the run and is never trimmed: about 32 B per sample, and
one :meth:`~LatencyRecorder.total` over 10^6 samples took 0.30 s of
event-loop time (tracemalloc and a wall clock, 2-core x86-64 host).
"""

from __future__ import annotations

import math
import time

__all__ = ["LatencyRecorder", "nearest_rank", "summary"]


def nearest_rank(ordered: list[float], q: float) -> float:
    """Exact nearest-rank ``q`` quantile of ascending ``ordered``.

    The smallest sample with at least ``q`` of the distribution at or
    below it: never an interpolation, so a reported p99 is a latency
    some request actually experienced, and quantiles are monotone in
    ``q`` by construction.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be within [0, 1], got {q}")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def summary(samples, shed: int, errors: int, duration: float) -> dict:
    """The JSON latency summary of ``samples`` (seconds) over ``duration`` seconds.

    ``count`` is the requests actually served; ``shed`` (refused by
    admission control) and ``errors`` (failed outright) have no latency.
    With nothing served the percentiles, max and mean are ``None`` (JSON
    ``null``): ``json.dumps`` would write NaN as the bare token ``NaN``,
    which is not JSON (RFC 8259) and which strict parsers such as jq and
    ``JSON.parse`` reject.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count:
        p50, p99, p999 = (1e3 * nearest_rank(ordered, q) for q in (0.50, 0.99, 0.999))
        top, mean = 1e3 * ordered[-1], 1e3 * (sum(ordered) / count)
    else:
        p50 = p99 = p999 = top = mean = None
    return {
        "count": count,
        "shed": shed,
        "errors": errors,
        "duration_seconds": duration,
        "throughput_qps": count / duration if duration > 0 else 0.0,
        "p50_ms": p50,
        "p99_ms": p99,
        "p999_ms": p999,
        "max_ms": top,
        "mean_ms": mean,
    }


class LatencyRecorder:
    """The ledger: every latency sample, the shed and error totals, an interval mark."""

    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.samples: list[float] = []
        self.shed = 0
        self.errors = 0
        self._started = clock()
        #: Where the open interval starts: ``(samples, shed, errors, time)``.
        self._mark = (0, 0, 0, self._started)

    def observe(self, seconds: float) -> None:
        """Record one served request's latency."""
        if seconds < 0:
            raise ValueError(f"latency must be non-negative, got {seconds}")
        self.samples.append(float(seconds))

    def count_shed(self) -> None:
        """Record one request rejected by admission control."""
        self.shed += 1

    def count_error(self) -> None:
        """Record one request that failed outright."""
        self.errors += 1

    def snapshot(self) -> dict:
        """Summarize the open interval and start a new one at the ledger's end."""
        now = self._clock()
        samples, shed, errors, since = self._mark
        self._mark = (len(self.samples), self.shed, self.errors, now)
        return summary(
            self.samples[samples:], self.shed - shed, self.errors - errors, max(0.0, now - since)
        )

    def total(self) -> dict:
        """Summarize the whole ledger; the open interval is left as it is."""
        duration = max(0.0, self._clock() - self._started)
        return summary(self.samples, self.shed, self.errors, duration)
