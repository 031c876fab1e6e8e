"""SCOUT prefetcher: strategies, planning, prediction cost, SCOUT-OPT."""

from dataclasses import fields

import numpy as np
import pytest

from repro.baselines import ObservedQuery
from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher
from repro.core.scout_opt import GAP_IO_BUDGET_FRACTION
from repro.core.strategies import MAX_PREFETCH_LOCATIONS, plan_targets
from repro.datagen.dataset import Dataset, NavigationGraph
from repro.index import FlatIndex
from repro.workload import generate_sequence


def drive(prefetcher, index, sequence, n=None):
    """Feed the first n queries of a sequence through a prefetcher."""
    prefetcher.begin_sequence()
    for i, query in enumerate(sequence.queries[: n or len(sequence.queries)]):
        result = index.query(query.bounds)
        prefetcher.observe(ObservedQuery(i, query.bounds, result.object_ids))
    return prefetcher


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScoutConfig(strategy="sideways")
        with pytest.raises(ValueError):
            ScoutConfig(grid_resolution=0)

    def test_holds_only_what_a_sweep_sets(self):
        # Fig 13e varies the resolution, the §5.2 ablation the strategy.
        assert [f.name for f in fields(ScoutConfig)] == ["grid_resolution", "strategy"]


class TestScoutBehaviour:
    def test_produces_targets_after_observation(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=6, volume=40_000.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq, n=3)
        targets = scout.plan()
        assert targets
        for target in targets:
            assert np.isfinite(target.anchor).all()
            assert target.share > 0

    def test_targets_start_near_query_boundary(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=6, volume=40_000.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq, n=3)
        last_bounds = seq.queries[2].bounds
        side = 40_000.0 ** (1 / 3)
        for target in scout.plan():
            # Exit anchors sit on (or just beyond) the query boundary.
            outside = target.anchor - np.clip(target.anchor, last_bounds.lo, last_bounds.hi)
            assert np.linalg.norm(outside) < side

    def test_candidates_shrink_along_sequence(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=10, volume=40_000.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq)
        sizes = scout.tracker.candidate_sizes
        assert len(sizes) == 10
        assert np.mean(sizes[-3:]) <= np.mean(sizes[:3])

    def test_prediction_cost_positive_and_chargeable(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=4, volume=40_000.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq, n=2)
        assert scout.prediction_cost_seconds() > 0
        assert scout.graph_build_cost_seconds() > 0
        assert scout.graph_build_cost_seconds() <= scout.prediction_cost_seconds()

    def test_begin_sequence_resets_state(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=4, volume=40_000.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq, n=3)
        scout.begin_sequence()
        assert scout.n_candidates == 0
        assert scout.plan() == []

    def test_memory_accounting_positive(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=4, volume=40_000.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq, n=2)
        assert scout.last_graph_memory_bytes > 0


class TestStrategies:
    def build_tracker(self, tissue, tissue_flat, rng, config):
        seq = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0)
        scout = drive(ScoutPrefetcher(tissue, config), tissue_flat, seq, n=4)
        return scout

    def test_deep_single_target(self, tissue, tissue_flat, rng):
        scout = self.build_tracker(tissue, tissue_flat, rng, ScoutConfig(strategy="deep"))
        targets = scout.plan()
        assert len(targets) == 1
        assert targets[0].share == 1.0

    def test_broad_limits_locations(self, tissue, tissue_flat, rng):
        scout = self.build_tracker(tissue, tissue_flat, rng, ScoutConfig(strategy="broad"))
        targets = scout.plan()
        assert 1 <= len(targets) <= MAX_PREFETCH_LOCATIONS

    def test_broad_shares_sum_to_one(self, tissue, tissue_flat, rng):
        config = ScoutConfig(strategy="broad")
        scout = self.build_tracker(tissue, tissue_flat, rng, config)
        targets = scout.plan()
        if targets:
            assert sum(t.share for t in targets) == pytest.approx(1.0)

    def test_empty_tracker_plans_nothing(self):
        from repro.core.candidates import CandidateTracker

        tracker = CandidateTracker()
        rng = np.random.default_rng(0)
        assert plan_targets(tracker, ScoutConfig(), rng, side=10.0, gap=0.0) == []


class TestScoutOpt:
    def test_same_prediction_as_scout_without_gaps(self, tissue, tissue_flat, rng):
        """§7.1: without gaps SCOUT and SCOUT-OPT perform identically."""
        seq = generate_sequence(tissue, rng, n_queries=6, volume=40_000.0, gap=0.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq)
        opt = drive(ScoutOptPrefetcher(tissue, tissue_flat), tissue_flat, seq)
        t_scout = scout.plan()
        t_opt = opt.plan()
        assert len(t_scout) == len(t_opt)
        for a, b in zip(t_scout, t_opt):
            assert np.allclose(a.anchor, b.anchor)

    def test_no_gap_io_without_gaps(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0, gap=0.0)
        opt = drive(ScoutOptPrefetcher(tissue, tissue_flat), tissue_flat, seq)
        assert opt.total_gap_pages == 0

    def test_gap_traversal_requests_pages(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=6, volume=40_000.0, gap=15.0)
        opt = drive(ScoutOptPrefetcher(tissue, tissue_flat), tissue_flat, seq)
        assert opt.total_gap_pages > 0

    def test_graph_memory_before_any_build_is_zero(self, tissue, tissue_flat):
        assert ScoutOptPrefetcher(tissue, tissue_flat).last_graph_memory_bytes == 0

    def test_zero_length_objects_give_no_local_direction(self):
        point = np.zeros((1, 3))
        nav = NavigationGraph(np.array([[0.0, 0, 0], [1, 0, 0]]), [])
        ds = Dataset(
            name="dot",
            p0=point,
            p1=point,
            radius=np.zeros(1),
            structure_id=np.zeros(1, dtype=np.int64),
            branch_id=np.zeros(1, dtype=np.int64),
            nav=nav,
        )
        opt = ScoutOptPrefetcher(ds, FlatIndex(ds))
        assert opt._local_direction(np.array([0]), np.array([1.0, 0.0, 0.0])) is None

    def test_gap_io_respects_budget(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=6, volume=40_000.0, gap=15.0)
        opt = ScoutOptPrefetcher(tissue, tissue_flat)
        opt.begin_sequence()
        for i, query in enumerate(seq.queries):
            result = tissue_flat.query(query.bounds)
            opt.observe(ObservedQuery(i, query.bounds, result.object_ids))
            pages = opt.gap_io_pages()
            n_pages = len(tissue_flat.pages_for_region(query.bounds))
            budget = max(1, int(GAP_IO_BUDGET_FRACTION * n_pages))
            n_exits = max(1, len(opt.tracker.all_exits()))
            # Each exit gets its per-exit slice; small overshoot allowed
            # because the last probe of each exit may span several pages.
            assert len(set(pages)) <= (budget + n_exits * 8)

    def test_gap_io_pages_consumed_once(self, tissue, tissue_flat, rng):
        seq = generate_sequence(tissue, rng, n_queries=4, volume=40_000.0, gap=15.0)
        opt = drive(ScoutOptPrefetcher(tissue, tissue_flat), tissue_flat, seq)
        first = opt.gap_io_pages()
        assert opt.gap_io_pages() == []

    def test_lower_prediction_cost_than_scout(self, tissue, tissue_flat, rng):
        """Sparse construction overlaps graph building with result I/O."""
        seq = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq)
        opt = drive(ScoutOptPrefetcher(tissue, tissue_flat), tissue_flat, seq)
        assert opt.prediction_cost_seconds() <= scout.prediction_cost_seconds()

    def test_lower_memory_than_scout(self, tissue, tissue_flat, rng):
        """§8.2: SCOUT-OPT keeps only the candidate subgraph (~6% vs ~24%)."""
        seq = generate_sequence(tissue, rng, n_queries=6, volume=60_000.0)
        scout = drive(ScoutPrefetcher(tissue), tissue_flat, seq)
        opt = drive(ScoutOptPrefetcher(tissue, tissue_flat), tissue_flat, seq)
        assert opt.last_graph_memory_bytes <= scout.last_graph_memory_bytes
