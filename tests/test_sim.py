"""Simulator: Figure-2 timeline semantics, metrics, experiment helpers."""

import pytest

from repro.baselines import NoPrefetcher, StraightLinePrefetcher
from repro.core import ScoutPrefetcher
from repro.sim import (
    SimulationConfig,
    SimulationEngine,
    aggregate,
    run_experiment,
)
from repro.sim.metrics import QueryRecord, SequenceMetrics
from repro.workload import generate_sequence, generate_sequences
from tests.oracles.baselines import OraclePrefetcher


def record(index=0, needed=10, hit=5, objects=100, objects_hit=50, residual=1.0, cold=2.0):
    return QueryRecord(
        index=index,
        pages_needed=needed,
        pages_hit=hit,
        objects_needed=objects,
        objects_hit=objects_hit,
        residual_seconds=residual,
        cold_seconds=cold,
        window_seconds=1.0,
        prediction_seconds=0.01,
        graph_build_seconds=0.005,
        prefetch_pages=3,
        prefetch_seconds=0.5,
        gap_io_pages=0,
        n_result_objects=objects,
        n_candidates=1,
    )


class TestMetrics:
    def test_first_query_excluded_from_hit_rate(self):
        metrics = SequenceMetrics(
            records=[record(0, objects_hit=0), record(1, objects_hit=100)]
        )
        assert metrics.cache_hit_rate == pytest.approx(1.0)

    def test_hit_rate_object_weighted(self):
        metrics = SequenceMetrics(
            records=[
                record(0),
                record(1, objects=100, objects_hit=25),
                record(2, objects=300, objects_hit=300),
            ]
        )
        assert metrics.cache_hit_rate == pytest.approx(325 / 400)

    def test_speedup_is_cold_over_response(self):
        metrics = SequenceMetrics(records=[record(residual=1.0, cold=4.0)] * 3)
        assert metrics.speedup == pytest.approx(4.0)

    def test_speedup_infinite_when_response_zero(self):
        metrics = SequenceMetrics(records=[record(residual=0.0)])
        assert metrics.speedup == float("inf")

    def test_empty_sequence_hit_rate_zero(self):
        assert SequenceMetrics().cache_hit_rate == 0.0

    def test_aggregate_pools_counts(self):
        seq_a = SequenceMetrics(records=[record(0), record(1, objects=100, objects_hit=100)])
        seq_b = SequenceMetrics(records=[record(0), record(1, objects=100, objects_hit=0)])
        pooled = aggregate([seq_a, seq_b])
        assert pooled.cache_hit_rate == pytest.approx(0.5)
        assert pooled.n_sequences == 2
        assert pooled.hit_rate_std > 0

    def test_aggregate_rejects_empty(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_breakdown_totals(self):
        metrics = SequenceMetrics(records=[record()] * 4)
        assert metrics.graph_build_seconds == pytest.approx(0.02)
        assert metrics.prediction_seconds == pytest.approx(0.04)
        assert sum(r.prefetch_pages for r in metrics.records) == 12


class TestEngineSemantics:
    def test_no_prefetcher_means_no_hits_and_unit_speedup(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=6, volume=40_000.0)
        engine = SimulationEngine(tissue_flat)
        metrics = engine.run(seq, NoPrefetcher())
        assert metrics.cache_hit_rate == 0.0
        assert metrics.speedup == pytest.approx(1.0)

    def test_oracle_hits_nearly_everything(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=8, volume=40_000.0)
        engine = SimulationEngine(tissue_flat)
        oracle = OraclePrefetcher([seq])
        metrics = engine.run(seq, oracle)
        assert metrics.cache_hit_rate > 0.8
        assert metrics.speedup > 3.0

    def test_first_query_never_hits(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=4, volume=40_000.0)
        engine = SimulationEngine(tissue_flat)
        metrics = engine.run(seq, OraclePrefetcher([seq]))
        assert metrics.records[0].pages_hit == 0

    def test_window_scales_with_ratio(self, tissue, tissue_flat, rng):
        slow = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0, window_ratio=0.5)
        engine = SimulationEngine(tissue_flat)
        m = engine.run(slow, NoPrefetcher())
        for r in m.records:
            assert r.window_seconds == pytest.approx(0.5 * r.cold_seconds)

    def test_zero_window_prevents_prefetching(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0, window_ratio=0.0)
        engine = SimulationEngine(tissue_flat)
        metrics = engine.run(seq, OraclePrefetcher([seq]))
        assert sum(r.prefetch_pages for r in metrics.records) == 0
        assert metrics.cache_hit_rate == 0.0

    def test_prefetch_seconds_never_exceed_window(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=6, volume=40_000.0)
        engine = SimulationEngine(tissue_flat)
        metrics = engine.run(seq, ScoutPrefetcher(tissue))
        for r in metrics.records:
            # One batch may overshoot by a single region's cost.
            assert r.prefetch_seconds <= r.window_seconds + 0.05

    def test_residual_io_matches_missed_pages(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=4, volume=40_000.0)
        engine = SimulationEngine(tissue_flat)
        metrics = engine.run(seq, NoPrefetcher())
        for r in metrics.records:
            assert r.pages_hit == 0
            assert r.residual_seconds == pytest.approx(r.cold_seconds)

    def test_cache_capacity_config(self, tissue_flat):
        assert SimulationConfig(cache_capacity_pages=17).cache_capacity_for(tissue_flat) == 17
        auto = SimulationConfig().cache_capacity_for(tissue_flat)
        assert auto >= 256

    def test_scout_records_candidates(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0)
        engine = SimulationEngine(tissue_flat)
        metrics = engine.run(seq, ScoutPrefetcher(tissue))
        assert any(r.n_candidates > 0 for r in metrics.records[1:])

    def test_deterministic(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0)
        engine = SimulationEngine(tissue_flat)
        m1 = engine.run(seq, ScoutPrefetcher(tissue))
        m2 = engine.run(seq, ScoutPrefetcher(tissue))
        assert [r.pages_hit for r in m1.records] == [r.pages_hit for r in m2.records]


class TestRunExperiment:
    def test_aggregates_all_sequences(self, tissue, tissue_flat):
        seqs = generate_sequences(tissue, 3, seed=2, n_queries=4, volume=40_000.0)
        result = run_experiment(tissue_flat, seqs, StraightLinePrefetcher())
        assert result.metrics.n_sequences == 3
        assert len(result.sequences) == 3
        assert result.prefetcher_name == "straight-line"

    def test_oracle_rebinds_per_sequence(self, tissue, tissue_flat):
        seqs = generate_sequences(tissue, 2, seed=2, n_queries=4, volume=40_000.0)
        result = run_experiment(tissue_flat, seqs, OraclePrefetcher(seqs))
        assert result.cache_hit_rate > 0.5

    def test_rejects_empty_sequences(self, tissue_flat):
        with pytest.raises(ValueError):
            run_experiment(tissue_flat, [], NoPrefetcher())

    def test_caches_cold_per_sequence(self, tissue, tissue_flat):
        """§7.1: the prefetch cache is cleared between sequences."""
        seqs = generate_sequences(tissue, 2, seed=3, n_queries=4, volume=40_000.0)
        result = run_experiment(tissue_flat, seqs, OraclePrefetcher(seqs))
        for seq_metrics in result.sequences:
            assert seq_metrics.records[0].pages_hit == 0
