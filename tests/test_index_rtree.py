"""STR R-tree: structure invariants and query exactness vs brute force."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.dataset import Dataset, NavEdge, NavigationGraph, Polyline
from repro.geometry import AABB
from repro.index import STRTree
from repro.index.base import region_corners
from repro.index.rtree import PROBE_BLOCK, str_partition
from tests.oracles.geometry import box_contains
from tests.oracles.index import page_bounds, pages_for_region_scalar


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


class TestStrPartition:
    def test_every_object_in_exactly_one_tile(self, rng):
        centers = rng.uniform(0, 10, size=(500, 3))
        tiles = str_partition(centers, fanout=16)
        all_ids = np.concatenate(tiles)
        assert sorted(all_ids) == list(range(500))

    def test_tile_sizes_bounded(self, rng):
        centers = rng.uniform(0, 10, size=(333, 3))
        for tile in str_partition(centers, fanout=16):
            assert 1 <= len(tile) <= 16

    def test_empty_input(self):
        assert str_partition(np.empty((0, 3)), fanout=8) == []


class TestTreeStructure:
    def test_single_page_dataset(self, rng):
        ds = toy_dataset(rng.uniform(0, 1, size=(5, 3)))
        tree = STRTree(ds, fanout=16)
        assert tree.n_pages == 1
        assert len(tree.pages_for_region(ds.bounds)) == 1
        far = AABB([100, 100, 100], [101, 101, 101])
        assert len(tree.pages_for_region(far)) == 0
        near, none = tree.pages_for_regions([ds.bounds, far])
        assert list(near) == [0] and len(none) == 0

    def test_pages_partition_objects(self, rng):
        ds = toy_dataset(rng.uniform(0, 10, size=(200, 3)))
        tree = STRTree(ds, fanout=16)
        seen = np.concatenate(
            [tree.page_table.objects_of_page(p) for p in range(tree.n_pages)]
        )
        assert sorted(seen) == list(range(200))

    def test_page_bounds_contain_their_objects(self, rng):
        ds = toy_dataset(rng.uniform(0, 10, size=(200, 3)))
        tree = STRTree(ds, fanout=16)
        for page in range(tree.n_pages):
            box = page_bounds(tree, page)
            for obj in tree.page_table.objects_of_page(page):
                assert box_contains(box, ds.p0[obj])

    @pytest.mark.parametrize("fanout", [1, 2, 3])
    def test_rejects_tiny_fanout(self, rng, fanout):
        with pytest.raises(ValueError, match="fanout must be >= 4"):
            STRTree(toy_dataset(rng.uniform(0, 1, size=(5, 3))), fanout=fanout)

    @pytest.mark.parametrize("fanout", range(4, 17))
    def test_every_level_shrinks_at_every_accepted_fanout(self, rng, fanout):
        """The build re-partitions a level until one node is left: each
        pass must cut fewer tiles than it has nodes (the tile count
        depends on the node count alone)."""
        centers = rng.uniform(0, 1, size=(300, 3))
        for n in range(2, len(centers) + 1):
            assert len(str_partition(centers[:n], fanout)) < n, n


class TestQueryExactness:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_query_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 10, size=(150, 3))
        ds = toy_dataset(points)
        tree = STRTree(ds, fanout=8)
        lo = rng.uniform(0, 8, size=3)
        region = AABB(lo, lo + rng.uniform(0.5, 3, size=3))
        expected = set(np.flatnonzero(box_contains(region, points)).tolist())
        got = set(tree.query(region).object_ids.tolist())
        assert got == expected

    def test_query_on_real_tissue_matches_brute_force(self, tissue, tissue_rtree):
        region = AABB.cube(tissue.bounds.center, 60_000.0)
        mask = np.all(
            (tissue.obj_lo <= region.hi) & (tissue.obj_hi >= region.lo), axis=1
        )
        expected = set(np.flatnonzero(mask).tolist())
        got = set(tissue_rtree.query(region).object_ids.tolist())
        assert got == expected

    def test_result_pages_cover_result_objects(self, tissue, tissue_rtree):
        region = AABB.cube(tissue.bounds.center, 40_000.0)
        result = tissue_rtree.query(region)
        pages = set(result.page_ids.tolist())
        for obj in result.object_ids:
            assert tissue_rtree.page_table.page_ids_of_objects([int(obj)])[0] in pages

    def test_whole_bounds_returns_everything(self, tissue, tissue_rtree):
        result = tissue_rtree.query(tissue.bounds.inflate(1.0))
        assert result.n_objects == tissue.n_objects
        assert len(result.page_ids) == tissue_rtree.n_pages

    def test_empty_region(self, tissue_rtree):
        region = AABB([1e7, 1e7, 1e7], [1e7 + 1, 1e7 + 1, 1e7 + 1])
        result = tissue_rtree.query(region)
        assert result.n_objects == 0 and len(result.page_ids) == 0



def random_boxes(rng, bounds, n: int, side: float) -> np.ndarray:
    """``n`` packed ``(2, 3)`` cubes of ``side`` centred uniformly in ``bounds``."""
    centers = bounds.lo + rng.random((n, 3)) * (bounds.hi - bounds.lo)
    return np.stack((centers - side / 2.0, centers + side / 2.0), axis=1)


class TestProbeBlocks:
    """A long probe pass runs in :data:`PROBE_BLOCK`-region blocks."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.sampled_from(
            [1, PROBE_BLOCK - 1, PROBE_BLOCK, PROBE_BLOCK + 1, 2 * PROBE_BLOCK, 3 * PROBE_BLOCK - 5]
        ),
        side=st.sampled_from([2.0, 30.0, 3_000.0]),
    )
    def test_a_blocked_pass_equals_the_unblocked_one(self, tissue, tissue_rtree, seed, n, side):
        regions = random_boxes(np.random.default_rng(seed), tissue.bounds, n, side)
        blocked = tissue_rtree.pages_for_regions(regions)
        whole = tissue_rtree._descend(*region_corners(regions))
        assert len(blocked) == len(whole) == n
        for got, want, region in zip(blocked, whole, regions):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            alone = pages_for_region_scalar(tissue_rtree, AABB(region[0], region[1]))
            assert np.array_equal(got, alone)

    def test_a_long_pass_peaks_like_one_block(self, tissue, tissue_rtree):
        """The gathers of one pass over eight blocks stay those of one block:
        its traced allocation peak is within 1.5x (an unblocked pass: ~7x)."""
        regions = random_boxes(np.random.default_rng(3), tissue.bounds, 8 * PROBE_BLOCK, 2.0)

        def peak(boxes) -> int:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tissue_rtree.pages_for_regions(boxes)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(regions) <= 1.5 * peak(regions[:PROBE_BLOCK])
