"""Latency percentile math and the one ledger both serving sides keep.

The serving daemon's report quality rests on two properties pinned
here:

* **exact nearest-rank quantiles** -- a reported p99 is a latency some
  request actually experienced (never an interpolation), checked
  against hand-computed values on known samples, and p50 <= p99 <=
  p999 <= max under arbitrary latency streams (hypothesis-generated),
  which ``tests/test_serve_daemon.py`` asserts on real daemon output;
* **one ledger** -- under any stream of observe / shed / error events
  cut by ``snapshot()`` calls, each interval is :func:`summary` over
  its slice of the ledger, the intervals' counts add up to the
  total's, and the total is :func:`summary` over the whole ledger.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.latency import LatencyRecorder, nearest_rank, summary

latencies = st.lists(
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=200,
)

PERCENTILES = ("p50_ms", "p99_ms", "p999_ms", "max_ms")


def summarize(values, shed=0, errors=0, duration=0.0) -> dict:
    return summary(values, shed, errors, duration)


class TestSummary:
    def test_known_samples_exact(self):
        # Ten equally likely samples: nearest-rank p50 is the 5th, p90
        # the 9th, p99/p999/max all the 10th.
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        assert nearest_rank(sorted(values), 0.90) == 9
        report = summarize(values, duration=5.0)
        assert [report[key] for key in PERCENTILES] == [5e3, 10e3, 10e3, 10e3]
        assert report["mean_ms"] == 5.5e3
        assert (report["count"], report["throughput_qps"]) == (10, 2.0)

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert nearest_rank([0.25], q) == 0.25
        assert [summarize([0.25])[key] for key in PERCENTILES] == [250.0] * 4

    def test_quantile_zero_is_minimum(self):
        assert nearest_rank([1.0, 2.0, 3.0], 0.0) == 1.0
        assert nearest_rank([1.0, 2.0, 3.0], 1.0) == 3.0

    def test_nearest_rank_never_interpolates(self):
        # Any quantile is one of the two observed values, never 50.5.
        for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
            assert nearest_rank([1.0, 100.0], q) in (1.0, 100.0)

    def test_empty_summary_is_null(self):
        # None, not NaN: json.dumps writes NaN as a token JSON has not.
        report = summarize([], shed=3, duration=1.0)
        assert [report[key] for key in (*PERCENTILES, "mean_ms")] == [None] * 5
        assert (report["count"], report["shed"], report["throughput_qps"]) == (0, 3, 0.0)

    def test_no_duration_is_no_throughput(self):
        assert summarize([0.001])["throughput_qps"] == 0.0

    def test_quantile_out_of_range_raises(self):
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], -0.1)

    def test_summary_units_are_milliseconds(self):
        report = summarize([0.010, 0.002], duration=1.0)
        assert report["count"] == 2
        assert report["max_ms"] == pytest.approx(10.0)
        assert report["p50_ms"] == pytest.approx(2.0)
        assert report["throughput_qps"] == pytest.approx(2.0)

    @given(latencies)
    @settings(max_examples=100, deadline=None)
    def test_percentiles_monotone(self, values):
        report = summarize(values)
        if not values:
            assert report["p50_ms"] is None
            return
        p50, p99, p999, top = (report[key] for key in PERCENTILES)
        assert p50 <= p99 <= p999 <= top == 1e3 * max(values)

    @given(latencies, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_quantile_is_an_observed_sample(self, values, q):
        if not values:
            return
        assert nearest_rank(sorted(values), q) in values


class FakeClock:
    """A clock that moves only when a test moves it."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


#: One ledger event: a latency, a shed, an error, a ``snapshot()`` cut, or time passing.
events = st.lists(
    st.one_of(
        st.tuples(st.just("observe"), st.floats(min_value=0.0, max_value=60.0)),
        st.tuples(st.sampled_from(["shed", "error", "snapshot"]), st.none()),
        st.tuples(st.just("tick"), st.floats(min_value=0.0, max_value=10.0)),
    ),
    max_size=120,
)


class TestLedger:
    @given(events)
    @settings(max_examples=200, deadline=None)
    def test_intervals_are_slices_of_the_ledger_and_sum_to_the_total(self, stream):
        clock = FakeClock()
        started = clock.now
        recorder = LatencyRecorder(clock=clock)
        ledger, intervals, cut, samples, shed, errors = [], [], started, [], 0, 0
        for event, value in stream:
            if event == "observe":
                recorder.observe(value)
                ledger.append(value)
                samples.append(value)
            elif event == "shed":
                recorder.count_shed()
                shed += 1
            elif event == "error":
                recorder.count_error()
                errors += 1
            elif event == "tick":
                clock.now += value
            else:
                interval = recorder.snapshot()
                assert interval == summary(samples, shed, errors, clock.now - cut)
                intervals.append(interval)
                cut, samples, shed, errors = clock.now, [], 0, 0
        total = recorder.total()
        # The open interval is still open: total() cut nothing.
        intervals.append(recorder.snapshot())
        assert intervals[-1] == summary(samples, shed, errors, clock.now - cut)
        for key in ("count", "shed", "errors"):
            assert sum(interval[key] for interval in intervals) == total[key]
        assert total == summary(ledger, total["shed"], total["errors"], clock.now - started)

    def test_snapshot_resets_interval_but_accumulates_total(self):
        recorder = LatencyRecorder()
        recorder.observe(0.001)
        recorder.observe(0.002)
        recorder.count_shed()
        first = recorder.snapshot()
        assert (first["count"], first["shed"]) == (2, 1)
        recorder.observe(0.003)
        second = recorder.snapshot()
        assert (second["count"], second["shed"]) == (1, 0)
        total = recorder.total()
        assert (total["count"], total["shed"]) == (3, 1)
        assert total["max_ms"] == pytest.approx(3.0)

    def test_negative_latency_rejected(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.observe(-0.001)
