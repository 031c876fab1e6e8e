"""Latency percentile math: exact quantiles, associative merge, recorder.

The serving daemon's report quality rests on three properties pinned
here:

* **exact nearest-rank quantiles** -- a reported p99 is a latency some
  request actually experienced (never an interpolation), checked
  against hand-computed values on known samples;
* **merge associativity** -- interval reports fold into run totals in
  any grouping and always equal one report over the union of samples,
  so per-interval and final summaries can never disagree;
* **percentile monotonicity** -- p50 <= p99 <= p999 <= max under
  arbitrary latency streams (hypothesis-generated), which
  ``tests/test_serve_daemon.py`` asserts on real daemon output.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.latency import LatencyRecorder
from repro.sim.metrics import LatencyReport

latencies = st.lists(
    st.floats(min_value=0.0, max_value=60.0, allow_nan=False, allow_infinity=False),
    min_size=0,
    max_size=200,
)


class TestQuantiles:
    def test_known_samples_exact(self):
        # Ten equally likely samples: nearest-rank p50 is the 5th, p90
        # the 9th, p99/p999/max all the 10th.
        report = LatencyReport.from_values([10, 1, 9, 2, 8, 3, 7, 4, 6, 5])
        assert report.quantile(0.50) == 5
        assert report.quantile(0.90) == 9
        assert report.p99 == 10
        assert report.p999 == 10
        assert report.max == 10

    def test_single_sample_is_every_quantile(self):
        report = LatencyReport.from_values([0.25])
        for q in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert report.quantile(q) == 0.25

    def test_quantile_zero_is_minimum(self):
        report = LatencyReport.from_values([3.0, 1.0, 2.0])
        assert report.quantile(0.0) == 1.0
        assert report.quantile(1.0) == 3.0

    def test_nearest_rank_never_interpolates(self):
        report = LatencyReport.from_values([1.0, 100.0])
        # Any quantile is one of the two observed values, never 50.5.
        for q in (0.0, 0.25, 0.5, 0.75, 0.99, 1.0):
            assert report.quantile(q) in (1.0, 100.0)

    def test_empty_report_is_nan(self):
        report = LatencyReport.from_values([])
        assert math.isnan(report.p50)
        assert math.isnan(report.max)
        assert math.isnan(report.mean)
        assert report.count == 0
        assert report.throughput_qps == 0.0

    def test_quantile_out_of_range_raises(self):
        report = LatencyReport.from_values([1.0])
        with pytest.raises(ValueError):
            report.quantile(1.5)
        with pytest.raises(ValueError):
            report.quantile(-0.1)

    @given(latencies)
    @settings(max_examples=100, deadline=None)
    def test_percentiles_monotone(self, values):
        report = LatencyReport.from_values(values)
        if not values:
            assert math.isnan(report.p50)
            return
        assert report.p50 <= report.p99 <= report.p999 <= report.max
        assert report.max == max(values)

    @given(latencies, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_quantile_is_an_observed_sample(self, values, q):
        if not values:
            return
        assert LatencyReport.from_values(values).quantile(q) in values


class TestMerge:
    def test_merge_equals_union(self):
        a = LatencyReport.from_values([3.0, 1.0], shed=1, duration_seconds=1.0)
        b = LatencyReport.from_values([2.0], errors=2, duration_seconds=0.5)
        merged = a.merge(b)
        assert merged.samples == (1.0, 2.0, 3.0)
        assert merged.shed == 1
        assert merged.errors == 2
        assert merged.duration_seconds == 1.5

    def test_merge_identity(self):
        a = LatencyReport.from_values([1.0, 2.0], shed=3)
        empty = LatencyReport.from_values([])
        assert a.merge(empty) == a
        assert empty.merge(a) == a

    @given(latencies, latencies, latencies)
    @settings(max_examples=100, deadline=None)
    def test_merge_associative(self, xs, ys, zs):
        a = LatencyReport.from_values(xs, shed=1, duration_seconds=0.25)
        b = LatencyReport.from_values(ys, errors=2, duration_seconds=0.5)
        c = LatencyReport.from_values(zs, shed=3, duration_seconds=1.0)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left == right
        # ... and either grouping equals one report over the raw union.
        assert left == LatencyReport.from_values(
            list(xs) + list(ys) + list(zs),
            shed=4,
            errors=2,
            duration_seconds=1.75,
        )

    @given(latencies, latencies)
    @settings(max_examples=50, deadline=None)
    def test_merge_commutative(self, xs, ys):
        a = LatencyReport.from_values(xs)
        b = LatencyReport.from_values(ys)
        assert a.merge(b) == b.merge(a)


class TestSerialization:
    def test_summary_units_are_milliseconds(self):
        report = LatencyReport.from_values([0.002, 0.010], duration_seconds=1.0)
        summary = report.summary()
        assert summary["count"] == 2
        assert summary["max_ms"] == pytest.approx(10.0)
        assert summary["p50_ms"] == pytest.approx(2.0)
        assert summary["throughput_qps"] == pytest.approx(2.0)


class TestRecorder:
    def test_snapshot_resets_interval_but_accumulates_total(self):
        recorder = LatencyRecorder()
        recorder.observe(0.001)
        recorder.observe(0.002)
        recorder.count_shed()
        first = recorder.snapshot()
        assert first.count == 2
        assert first.shed == 1
        recorder.observe(0.003)
        second = recorder.snapshot()
        assert second.count == 1
        total = recorder.total()
        assert total.count == 3
        assert total.shed == 1
        assert total.samples == (0.001, 0.002, 0.003)

    def test_total_includes_open_interval_without_reset(self):
        recorder = LatencyRecorder()
        recorder.observe(0.005)
        assert recorder.total().count == 1
        # total() must not have consumed the open interval.
        assert recorder.snapshot().count == 1

    def test_negative_latency_rejected(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.observe(-0.001)
