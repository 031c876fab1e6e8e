"""Engine internals: incremental region generation and budget accounting."""

import numpy as np
import pytest

from repro.baselines import NoPrefetcher, ObservedQuery, Prefetcher, PrefetchTarget
from repro.geometry import AABB
from repro.sim import SimulationConfig, SimulationEngine
from repro.workload import generate_sequence


class FixedPlanPrefetcher(Prefetcher):
    """Emits a constant plan; used to probe engine accounting."""

    name = "fixed"

    def __init__(self, targets, cost=0.0, gap_pages=()):
        self.targets = targets
        self.cost = cost
        self._gap_pages = list(gap_pages)

    def observe(self, observed: ObservedQuery) -> None:
        pass

    def plan(self):
        return self.targets

    def prediction_cost_seconds(self) -> float:
        return self.cost

    def gap_io_pages(self):
        pages, self._gap_pages = self._gap_pages, []
        return pages


@pytest.fixture()
def engine(tissue_flat):
    return SimulationEngine(tissue_flat)


@pytest.fixture()
def sequence(tissue, rng):
    return generate_sequence(tissue, rng, n_queries=4, volume=40_000.0)


class TestIncrementalRegions:
    def make_target(self, direction=(1.0, 0, 0), anchor=(0.0, 0, 0)):
        return PrefetchTarget(anchor=np.array(anchor), direction=np.array(direction))

    def boxes(self, engine, target, side=10.0):
        return engine._incremental_boxes(target, *engine._step_schedule(side))

    def test_regions_grow_up_to_cap(self, engine):
        side = 10.0
        cfg = engine.config
        offsets, half_sides = engine._step_schedule(side)
        assert len(offsets) == len(half_sides) == cfg.incremental_max_steps
        sides = 2.0 * half_sides
        cap = side * cfg.incremental_max_fraction
        assert sides[0] == pytest.approx(side * cfg.incremental_start_fraction)
        for before, after in zip(sides, sides[1:]):
            assert after == pytest.approx(min(before * cfg.incremental_growth, cap))
        assert sides[-1] == pytest.approx(cap)
        # Each step advances by a fraction of the side it just probed.
        starts = offsets - half_sides
        assert starts[0] == 0.0
        assert np.diff(starts) == pytest.approx(sides[:-1] * cfg.incremental_advance_fraction)

    def test_regions_advance_along_direction(self, engine):
        target = self.make_target(direction=(0.0, 3.0, 4.0), anchor=(1.0, 2.0, 3.0))
        boxes = self.boxes(engine, target)
        offsets, half_sides = engine._step_schedule(10.0)
        centres = (boxes[:, 0] + boxes[:, 1]) / 2.0
        assert centres == pytest.approx(target.anchor + offsets[:, None] * [0.0, 0.6, 0.8])
        assert boxes[:, 1] - boxes[:, 0] == pytest.approx(
            np.repeat(2.0 * half_sides[:, None], 3, axis=1)
        )
        assert np.all(np.diff(centres @ target.direction) > 0)

    def test_boxes_are_the_per_step_aabbs(self, engine):
        """Row k holds the very bits ``AABB.from_center_extent`` builds at step k."""
        target = self.make_target(direction=(0.3, -2.0, 0.7), anchor=(17.25, -3.5, 8.125))
        side = 23.7
        offsets, half_sides = engine._step_schedule(side)
        boxes = engine._incremental_boxes(target, offsets, half_sides)
        for k, (offset, half) in enumerate(zip(offsets.tolist(), half_sides.tolist())):
            box = AABB.from_center_extent(target.anchor + target.direction * offset, 2.0 * half)
            assert np.array_equal(boxes[k, 0], box.lo) and np.array_equal(boxes[k, 1], box.hi)

    def test_first_region_touches_anchor(self, engine):
        target = self.make_target(anchor=(4.0, 5.0, 6.0))
        boxes = self.boxes(engine, target)
        assert AABB(boxes[0, 0], boxes[0, 1]).contains_point(target.anchor)

    def test_zero_direction_expands_in_place(self, engine):
        target = PrefetchTarget(anchor=np.ones(3), direction=np.zeros(3))
        boxes = self.boxes(engine, target)
        assert np.array_equal((boxes[:, 0] + boxes[:, 1]) / 2.0, np.ones((len(boxes), 3)))
        assert np.all(np.diff(boxes[:, 1, 0] - boxes[:, 0, 0]) >= 0)

    def test_explicit_regions_passthrough(self, engine, sequence):
        boxes = (AABB([0, 0, 0], [1, 1, 1]), AABB([5, 5, 5], [6, 6, 6]))
        explicit = PrefetchTarget(anchor=np.zeros(3), direction=np.zeros(3), regions=boxes)
        incremental = self.make_target()
        query = sequence.queries[0]
        streams = engine._probe_streams([explicit, incremental], query)
        assert streams[0]._regions is boxes
        assert streams[1]._regions.shape == (engine.config.incremental_max_steps, 2, 3)
        # The explicit stream resolves exactly its two boxes, in order.
        for position, box in enumerate(boxes):
            assert np.array_equal(streams[0].get(position), engine.index.pages_for_region(box))
        assert streams[0].get(len(boxes)) is None


class TestBudgetAccounting:
    def test_counts_are_consistent(self, engine, sequence, tissue):
        from repro.core import ScoutPrefetcher

        metrics = engine.run(sequence, ScoutPrefetcher(tissue))
        for record in metrics.records:
            assert 0 <= record.pages_hit <= record.pages_needed
            assert 0 <= record.objects_hit <= record.objects_needed
            assert record.residual_seconds >= 0
            assert record.cold_seconds >= record.residual_seconds - 1e-12
            assert record.prefetch_pages >= 0

    def test_prediction_cost_eats_the_window(self, engine, sequence):
        """A prediction costlier than the window leaves nothing to prefetch."""
        target = PrefetchTarget(anchor=sequence.queries[0].center, direction=np.zeros(3))
        greedy = FixedPlanPrefetcher([target], cost=1e9)
        metrics = engine.run(sequence, greedy)
        assert metrics.total_prefetch_pages == 0

    def test_gap_pages_charged_within_window(self, engine, sequence, tissue_flat):
        all_pages = list(range(min(50, tissue_flat.n_pages)))
        prefetcher = FixedPlanPrefetcher([], gap_pages=all_pages)
        metrics = engine.run(sequence, prefetcher)
        # Some gap pages are fetched, but never more time than the window.
        for record in metrics.records:
            assert record.prefetch_seconds <= record.window_seconds + 0.05

    def test_share_zero_target_gets_nothing_alone(self, engine, sequence, tissue):
        center = tissue.bounds.center
        targets = [
            PrefetchTarget(anchor=center, direction=np.zeros(3), share=0.0),
        ]
        metrics = engine.run(sequence, FixedPlanPrefetcher(targets))
        # A zero-share plan is normalized to a full share (total_share
        # fallback), so it still prefetches: the engine must not divide
        # by zero.
        assert metrics.total_prefetch_pages >= 0

    def test_empty_plan_is_noop(self, engine, sequence):
        metrics = engine.run(sequence, FixedPlanPrefetcher([]))
        assert metrics.total_prefetch_pages == 0
        assert metrics.cache_hit_rate == 0.0

    def test_engine_matches_no_prefetcher_for_empty_plans(self, engine, sequence):
        a = engine.run(sequence, FixedPlanPrefetcher([]))
        b = engine.run(sequence, NoPrefetcher())
        assert [r.residual_seconds for r in a.records] == [
            r.residual_seconds for r in b.records
        ]


def one_page_seconds(engine) -> float:
    """Worst-case cost of a single page read under the engine's disk."""
    params = engine.config.disk
    return params.positioning_s / params.stripe_ways + params.transfer_s_per_page


class TestEngineInvariants:
    """Window-budget accounting must hold for every query of any sequence.

    Prefetch I/O (gap traversal + plan execution) plus the prediction
    cost charged against the window may exceed the window by at most the
    one page read that was in flight when the window closed; and hits
    can never exceed what the query needed.
    """

    def prefetchers(self, tissue, index):
        from repro.baselines import EWMAPrefetcher, HilbertPrefetcher
        from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher

        return [
            ScoutPrefetcher(tissue, ScoutConfig()),
            ScoutOptPrefetcher(tissue, index, ScoutConfig()),
            EWMAPrefetcher(lam=0.3),
            HilbertPrefetcher(tissue),
        ]

    @pytest.mark.parametrize("window_ratio", [0.1, 1.0, 2.5])
    def test_window_budget_never_overshoots(self, engine, tissue, tissue_flat, rng, window_ratio):
        sequence = generate_sequence(
            tissue, rng, n_queries=8, volume=30_000.0, window_ratio=window_ratio
        )
        slack = one_page_seconds(engine) + 1e-9
        for prefetcher in self.prefetchers(tissue, tissue_flat):
            metrics = engine.run(sequence, prefetcher)
            for r in metrics.records:
                assert r.pages_hit <= r.pages_needed
                assert r.objects_hit <= r.objects_needed
                budget = max(0.0, r.window_seconds - r.prediction_seconds)
                assert r.prefetch_seconds <= budget + slack, prefetcher.name
                if r.prediction_seconds <= r.window_seconds:
                    assert (
                        r.prefetch_seconds + r.prediction_seconds
                        <= r.window_seconds + slack
                    ), prefetcher.name

    def test_gap_io_counts_toward_the_same_window(self, engine, sequence, tissue_flat):
        pages = list(range(min(200, tissue_flat.n_pages)))
        prefetcher = FixedPlanPrefetcher([], gap_pages=pages)
        slack = one_page_seconds(engine) + 1e-9
        metrics = engine.run(sequence, prefetcher)
        for r in metrics.records:
            assert r.prefetch_seconds <= r.window_seconds + slack


class TestCarryRedistribution:
    """Window time a dead target cannot spend goes to targets that can.

    Regression for the single-pass carry bug: carry only flowed forward
    through the target list, so when a later target ran dry the leftover
    was discarded even though earlier targets still had regions to grow
    -- a plan of one live and one dead equal-share target stranded half
    the window.
    """

    def make_context(self, engine, tissue, tissue_flat, rng):
        from repro.storage.cache import PrefetchCache
        from repro.storage.disk import DiskModel

        sequence = generate_sequence(tissue, rng, n_queries=2, volume=40_000.0)
        query = sequence.queries[0]
        cache = PrefetchCache(engine.config.cache_capacity_for(tissue_flat))
        disk = DiskModel(engine.config.disk)
        return query, cache, disk

    def live_target(self, query, share=1.0):
        # Follow the walk tangent: that is where the tissue has data, so
        # the target's incremental regions keep yielding uncached pages.
        return PrefetchTarget(anchor=query.center, direction=query.direction, share=share)

    def dead_target(self, tissue, share=1.0):
        far = tissue.bounds.hi + 100.0 * (tissue.bounds.hi - tissue.bounds.lo)
        return PrefetchTarget(
            anchor=far,
            direction=np.zeros(3),
            share=share,
            regions=(AABB(far, far + 1.0),),
        )

    def budget_for(self, engine, n_pages=10):
        return n_pages * one_page_seconds(engine)

    def test_live_target_inherits_dead_targets_share(
        self, engine, tissue, tissue_flat, rng
    ):
        budget = self.budget_for(engine)

        query, cache, disk = self.make_context(engine, tissue, tissue_flat, rng)
        live = self.live_target(query, share=0.5)
        dead = self.dead_target(tissue, share=0.5)
        _, seconds_mixed = engine._execute_plan([live, dead], query, cache, disk, budget)

        query, cache, disk = self.make_context(engine, tissue, tissue_flat, rng)
        _, seconds_alone = engine._execute_plan(
            [self.live_target(query)], query, cache, disk, budget
        )

        # The live target alone can consume (almost) the whole window...
        assert seconds_alone > 0.8 * budget
        # ...and pairing it with a dead equal-share target must not strand
        # the dead target's half (the old code spent <= 0.5*budget + a batch).
        assert seconds_mixed > 0.8 * budget
        assert seconds_mixed == pytest.approx(seconds_alone, rel=0.05)

    def test_spending_never_exceeds_budget_plus_one_page(
        self, engine, tissue, tissue_flat, rng
    ):
        budget = self.budget_for(engine)
        query, cache, disk = self.make_context(engine, tissue, tissue_flat, rng)
        targets = [
            self.live_target(query, share=0.7),
            PrefetchTarget(anchor=query.center, direction=np.zeros(3), share=0.3),
        ]
        _, seconds = engine._execute_plan(targets, query, cache, disk, budget)
        assert seconds <= budget + one_page_seconds(engine) + 1e-9

    def test_all_dead_targets_spend_nothing(self, engine, tissue, tissue_flat, rng):
        query, cache, disk = self.make_context(engine, tissue, tissue_flat, rng)
        targets = [self.dead_target(tissue, share=0.5), self.dead_target(tissue, share=0.5)]
        pages, seconds = engine._execute_plan(targets, query, cache, disk, self.budget_for(engine))
        assert pages == 0 and seconds == 0.0
