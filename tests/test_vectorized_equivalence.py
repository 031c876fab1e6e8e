"""Old-vs-vectorized equivalence: page sets, crossings, full simulations.

The vectorized hot path (packed R-tree levels, batched region probes,
array-clipped crossings, lockstep gap traversal) must be a pure
performance change: every observable -- page sets, crossing points and
directions, simulation metrics -- is required to be *bit-identical* to
the scalar reference paths in ``tests/oracles/index.py`` (the
one-node-at-a-time R-tree walk and the indexes forced onto it) and
``tests/oracles/graph.py`` (per-object region crossings).
"""

from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher
from repro.geometry import AABB
from repro.graph.traversal import region_crossings, region_crossings_grouped
from repro.index import FlatIndex, STRTree
from repro.datagen.dataset import Dataset, NavEdge, NavigationGraph, Polyline
from repro.sim import run_experiment
from repro.workload.sequence import generate_sequences
from tests.oracles.graph import region_crossings_reference
from tests.oracles.index import (
    ScalarFlatIndex,
    ScalarSTRTree,
    page_bounds,
    pages_for_region_scalar,
)


def toy_dataset(points: np.ndarray) -> Dataset:
    """Point-like dataset (zero-length segments) for index tests."""
    n = len(points)
    nav = NavigationGraph(
        np.array([[0.0, 0, 0], [1.0, 0, 0]]),
        [NavEdge(0, 1, Polyline(np.array([[0.0, 0, 0], [1.0, 0, 0]])))],
    )
    return Dataset(
        name="toy",
        p0=points,
        p1=points.copy(),
        radius=np.zeros(n),
        structure_id=np.zeros(n, dtype=np.int64),
        branch_id=np.zeros(n, dtype=np.int64),
        nav=nav,
    )


def probe_boxes(dataset, rng, n):
    """Prefetch-region-sized probes anchored on the data (plus misses)."""
    probes = []
    for _ in range(n):
        anchor = dataset.centroids[rng.integers(dataset.n_objects)]
        side = rng.uniform(1.0, 60.0)
        probes.append(AABB.from_center_extent(anchor + rng.normal(scale=4.0, size=3), side))
    probes.append(dataset.bounds.inflate(1.0))
    probes.append(AABB([1e7] * 3, [1e7 + 1] * 3))
    return probes


class TestScalarTraversalEquivalence:
    def test_scalar_walk_matches_vectorized(self, tissue, tissue_rtree, rng):
        for probe in probe_boxes(tissue, rng, 50):
            assert np.array_equal(
                pages_for_region_scalar(tissue_rtree, probe),
                tissue_rtree.pages_for_region(probe),
            )

    def test_scalar_index_classes_match(self, tissue, rng):
        scalar_tree = ScalarSTRTree(tissue, fanout=16)
        tree = STRTree(tissue, fanout=16)
        for probe in probe_boxes(tissue, rng, 25):
            assert np.array_equal(
                scalar_tree.pages_for_region(probe), tree.pages_for_region(probe)
            )


class TestCrossingEquivalence:
    def regions_and_ids(self, dataset, rng, n):
        for _ in range(n):
            anchor = dataset.centroids[rng.integers(dataset.n_objects)]
            region = AABB.from_center_extent(anchor, rng.uniform(5.0, 60.0))
            mask = np.all(
                (dataset.obj_lo <= region.hi) & (dataset.obj_hi >= region.lo), axis=1
            )
            yield region, np.flatnonzero(mask)

    @staticmethod
    def assert_same(reference, vectorized):
        assert len(reference) == len(vectorized)
        for ref, vec in zip(reference, vectorized):
            assert ref.object_id == vec.object_id
            assert np.array_equal(ref.point, vec.point)
            assert np.array_equal(ref.direction, vec.direction)

    def test_bit_identical_to_reference(self, tissue, rng):
        checked = 0
        for region, ids in self.regions_and_ids(tissue, rng, 40):
            reference = region_crossings_reference(tissue, ids, region)
            self.assert_same(reference, region_crossings(tissue, ids, region))
            checked += len(reference)
        assert checked > 50  # the probes actually exercised crossings

    def test_grouped_matches_per_group(self, tissue, rng):
        for region, ids in self.regions_and_ids(tissue, rng, 10):
            groups = [ids[::3], ids[1::3], np.empty(0, dtype=np.int64), ids[2::3]]
            grouped = region_crossings_grouped(tissue, groups, region)
            assert len(grouped) == len(groups)
            for group, crossings in zip(groups, grouped):
                self.assert_same(region_crossings_reference(tissue, group, region), crossings)

    def test_empty_inputs(self, tissue):
        region = AABB.cube(tissue.bounds.center, 1000.0)
        assert region_crossings(tissue, np.empty(0, dtype=np.int64), region) == []
        assert region_crossings_grouped(tissue, [], region) == []


class TestSimulationEquivalence:
    """Full simulations over scalar vs vectorized indexes, bit for bit."""

    @pytest.mark.parametrize("kind,gap", [("scout", 0.0), ("scout-opt", 12.0)])
    def test_metrics_bit_identical(self, tissue, kind, gap):
        vector = FlatIndex(tissue, fanout=16)
        scalar = ScalarFlatIndex(tissue, fanout=16)
        sequences = generate_sequences(
            tissue, n_sequences=2, seed=5, n_queries=6, volume=30_000.0, gap=gap
        )

        def prefetcher(index):
            if kind == "scout":
                return ScoutPrefetcher(tissue, ScoutConfig())
            return ScoutOptPrefetcher(tissue, index, ScoutConfig())

        vector_result = run_experiment(vector, sequences, prefetcher(vector))
        scalar_result = run_experiment(scalar, sequences, prefetcher(scalar))
        assert asdict(vector_result.metrics) == asdict(scalar_result.metrics)
        for vec_seq, sca_seq in zip(vector_result.sequences, scalar_result.sequences):
            assert [asdict(r) for r in vec_seq.records] == [
                asdict(r) for r in sca_seq.records
            ]

    def test_lockstep_gap_walks_match_sequential(self, tissue, tissue_flat):
        opt = ScoutOptPrefetcher(tissue, tissue_flat, ScoutConfig())
        opt._last_side = 20.0
        rng = np.random.default_rng(3)
        starts, directions = [], []
        for _ in range(5):
            starts.append(tissue.centroids[rng.integers(tissue.n_objects)].copy())
            d = rng.normal(size=3)
            directions.append(d / np.linalg.norm(d))
        starts.append(tissue.bounds.hi + 500.0)  # walk through empty space
        directions.append(np.array([0.0, 0.0, 1.0]))
        starts.append(tissue.bounds.center)  # degenerate heading
        directions.append(np.zeros(3))

        lockstep = opt._traverse_gaps(starts, directions, gap=15.0, page_budget=12)
        for start, direction, (point, heading, pages) in zip(starts, directions, lockstep):
            ref_point, ref_heading, ref_pages = opt._traverse_gaps(
                [start], [direction], 15.0, 12
            )[0]
            assert np.array_equal(point, ref_point)
            assert np.array_equal(heading, ref_heading)
            assert pages == ref_pages


class TestBatchedRegionProperty:
    """Hypothesis: batched probes equal naive per-region references."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_pages_for_regions_matches_naive(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 10, size=(rng.integers(1, 200), 3))
        dataset = toy_dataset(points)
        regions = []
        for _ in range(rng.integers(1, 12)):
            lo = rng.uniform(-2, 10, size=3)
            regions.append(AABB(lo, lo + rng.uniform(0.0, 5, size=3)))
        for index in (STRTree(dataset, fanout=4), FlatIndex(dataset, fanout=4)):
            batched = index.pages_for_regions(regions)
            assert len(batched) == len(regions)
            for region, pages in zip(regions, batched):
                naive = pages_for_region_scalar(index, region)
                assert pages.dtype == np.int64
                assert np.array_equal(pages, naive)
                # and the per-region result is the brute-force truth
                brute = [
                    p
                    for p in range(index.n_pages)
                    if np.all(page_bounds(index, p).lo <= region.hi)
                    and np.all(region.lo <= page_bounds(index, p).hi)
                ]
                assert pages.tolist() == brute

    def test_query_many_matches_query(self, tissue, tissue_flat, rng):
        regions = probe_boxes(tissue, rng, 15)
        for region, batched in zip(regions, tissue_flat.query_many(regions)):
            single = tissue_flat.query(region)
            assert np.array_equal(batched.object_ids, single.object_ids)
            assert np.array_equal(batched.page_ids, single.page_ids)


class TestRegressions:
    def test_pages_for_region_returns_sorted_int64(self, tissue, tissue_rtree, rng):
        for probe in probe_boxes(tissue, rng, 10):
            pages = tissue_rtree.pages_for_region(probe)
            assert pages.dtype == np.int64
            assert np.all(np.diff(pages) > 0)  # strictly sorted, no dups

    def test_query_many_accepts_one_shot_iterator(self, tissue, tissue_flat, rng):
        regions = probe_boxes(tissue, rng, 5)
        results = tissue_flat.query_many(iter(regions))
        assert len(results) == len(regions)
        for region, result in zip(regions, results):
            assert np.array_equal(result.page_ids, tissue_flat.query(region).page_ids)

    def test_page_table_accepts_in_page_duplicates(self):
        from repro.storage.page import PageTable

        # The pre-change table accepted an id repeated within one page;
        # only cross-page double assignment is an error.
        table = PageTable([np.array([3, 3]), np.array([1])])
        assert table.page_ids_of_objects([3])[0] == 0
        with pytest.raises(ValueError):
            PageTable([np.array([3]), np.array([3])])
