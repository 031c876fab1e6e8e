"""FLAT index: the STR page layout SCOUT-OPT pairs with, and nothing more."""

import numpy as np
import pytest

from repro.geometry import AABB
from repro.index import FlatIndex, STRTree
from tests.oracles.index import page_bounds


class TestLayout:
    def test_builds_exactly_what_strtree_builds(self, tissue):
        flat, tree = FlatIndex(tissue, 16), STRTree(tissue, 16)
        assert vars(flat).keys() == vars(tree).keys()
        assert np.array_equal(flat._leaf_lo, tree._leaf_lo)
        assert np.array_equal(flat._leaf_hi, tree._leaf_hi)
        assert len(flat._levels) == len(tree._levels)
        for mine, theirs in zip(flat._levels, tree._levels):
            for name in ("lo", "hi", "child_start", "children"):
                assert np.array_equal(getattr(mine, name), getattr(theirs, name))

    def test_defines_nothing_but_its_docstring(self):
        class Bare(STRTree):
            pass

        assert FlatIndex.__doc__
        assert vars(FlatIndex).keys() == vars(Bare).keys()


class TestScoutOptPairing:
    def test_requires_flat_for_scout_opt(self, tissue, tissue_rtree):
        from repro.core import ScoutOptPrefetcher

        with pytest.raises(TypeError):
            ScoutOptPrefetcher(tissue, tissue_rtree)


class TestQueries:
    def test_same_results_as_rtree(self, tissue, tissue_flat, tissue_rtree):
        region = AABB.cube(tissue.bounds.center, 60_000.0)
        flat_result = tissue_flat.query(region)
        rtree_result = tissue_rtree.query(region)
        assert set(flat_result.object_ids.tolist()) == set(rtree_result.object_ids.tolist())


@pytest.fixture(scope="module", params=["tissue", "arterial", "lung", "roads"])
def laid_out(request):
    """One generator's dataset with the FLAT layout SCOUT-OPT reads over it."""
    dataset = request.getfixturevalue(request.param)
    return dataset, FlatIndex(dataset, fanout=16)


def probes(dataset, seed: int, n: int = 12) -> list[AABB]:
    """Boxes around random objects, 2-20 % of the dataset's extent per axis."""
    rng = np.random.default_rng(seed)
    centers = dataset.centroids[rng.integers(dataset.n_objects, size=n)]
    halves = np.maximum(dataset.bounds.extent * rng.uniform(0.01, 0.1, size=(n, 1)), 1.0)
    return [AABB(c - h, c + h) for c, h in zip(centers, halves)]


class TestLayoutOnEveryDataset:
    """Page-layout and query laws over every generator, the 2D roads included."""

    def test_pages_partition_objects(self, laid_out):
        dataset, index = laid_out
        seen = np.concatenate(
            [index.page_table.objects_of_page(p) for p in range(index.n_pages)]
        )
        assert np.array_equal(np.sort(seen), np.arange(dataset.n_objects))

    def test_page_sizes_within_fanout(self, laid_out):
        _, index = laid_out
        sizes = [index.page_table.page_size(p) for p in range(index.n_pages)]
        assert 1 <= min(sizes) and max(sizes) <= index.fanout

    def test_page_bounds_are_the_union_of_their_object_boxes(self, laid_out):
        dataset, index = laid_out
        for page in range(index.n_pages):
            objects = index.page_table.objects_of_page(page)
            box = page_bounds(index, page)
            assert np.array_equal(box.lo, dataset.obj_lo[objects].min(axis=0))
            assert np.array_equal(box.hi, dataset.obj_hi[objects].max(axis=0))

    def test_query_matches_brute_force(self, laid_out):
        dataset, index = laid_out
        leaf_lo = np.array([page_bounds(index, p).lo for p in range(index.n_pages)])
        leaf_hi = np.array([page_bounds(index, p).hi for p in range(index.n_pages)])
        for region in probes(dataset, seed=1):
            result = index.query(region)
            objects = np.all((dataset.obj_lo <= region.hi) & (dataset.obj_hi >= region.lo), axis=1)
            pages = np.all((leaf_lo <= region.hi) & (leaf_hi >= region.lo), axis=1)
            assert result.n_objects > 0
            assert np.array_equal(result.object_ids, np.flatnonzero(objects))
            assert np.array_equal(result.page_ids, np.flatnonzero(pages))

    def test_batched_probes_equal_single_probes(self, laid_out):
        dataset, index = laid_out
        regions = probes(dataset, seed=2)
        singles = [index.pages_for_region(r) for r in regions]
        packed = np.array([[r.lo, r.hi] for r in regions])
        for batched in (index.pages_for_regions(regions), index.pages_for_regions(packed)):
            assert len(batched) == len(singles)
            for got, want in zip(batched, singles):
                assert np.array_equal(got, want)
        for many, region in zip(index.query_many(regions), regions):
            one = index.query(region)
            assert np.array_equal(many.object_ids, one.object_ids)
            assert np.array_equal(many.page_ids, one.page_ids)

    def test_vectorized_descent_matches_the_scalar_oracle(self, laid_out):
        from tests.oracles.index import pages_for_region_scalar

        dataset, index = laid_out
        for region in probes(dataset, seed=3):
            assert np.array_equal(
                index.pages_for_region(region), pages_for_region_scalar(index, region)
            )

    def test_whole_bounds_and_far_regions(self, laid_out):
        dataset, index = laid_out
        everything = index.query(dataset.bounds)
        assert everything.n_objects == dataset.n_objects
        assert len(everything.page_ids) == index.n_pages
        far = dataset.bounds.hi + 10.0 * (dataset.bounds.extent + 1.0)
        nothing = index.query(AABB(far, far + 1.0))
        assert nothing.n_objects == 0 and len(nothing.page_ids) == 0
