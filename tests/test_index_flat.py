"""FLAT index: the STR page layout SCOUT-OPT pairs with, and nothing more."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datagen.dataset import Dataset, NavigationGraph
from repro.geometry import AABB
from repro.index import FlatIndex, STRTree
from tests.oracles.index import page_bounds, pages_for_region_scalar


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
        singles = [pages_for_region_scalar(index, r) for r in regions]
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


# -- query_many against a per-region brute force ----------------------------------


def brute_force_query(index, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(object_ids, page_ids)`` of one region, scanning every object and leaf."""
    dataset = index.dataset
    objects = np.all((dataset.obj_lo <= hi) & (dataset.obj_hi >= lo), axis=1)
    pages = np.all((index._leaf_lo <= hi) & (index._leaf_hi >= lo), axis=1)
    return np.flatnonzero(objects), np.flatnonzero(pages)


def random_segments(rng, n: int) -> Dataset:
    p0 = rng.uniform(0.0, 20.0, size=(n, 3))
    return Dataset(
        name="segments",
        p0=p0,
        p1=p0 + rng.normal(scale=rng.choice([0.0, 0.5, 3.0]), size=(n, 3)),
        radius=rng.uniform(0.0, 0.3, size=n),
        structure_id=np.zeros(n, dtype=np.int64),
        branch_id=np.zeros(n, dtype=np.int64),
        nav=NavigationGraph(np.zeros((1, 3)), []),
    )


#: How a batch reaches ``query_many``.
QUERY_FORMS = {
    "aabbs": lambda boxes: [AABB(lo, hi) for lo, hi in boxes],
    "iterator": lambda boxes: iter([AABB(lo, hi) for lo, hi in boxes]),
    "packed": lambda boxes: boxes,
}


class TestQueryMany:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        index_class=st.sampled_from([STRTree, FlatIndex]),
        fanout=st.sampled_from([4, 9, 16]),
        form=st.sampled_from(sorted(QUERY_FORMS)),
        n_regions=st.integers(0, 10),
    )
    def test_matches_per_region_brute_force(self, seed, index_class, fanout, form, n_regions):
        rng = np.random.default_rng(seed)
        index = index_class(random_segments(rng, int(rng.integers(1, 300))), fanout=fanout)
        boxes = []
        for _ in range(n_regions):
            kind = rng.choice(["inside", "miss", "duplicate", "flat"])
            if kind == "duplicate" and boxes:
                boxes.append(boxes[int(rng.integers(len(boxes)))].copy())
                continue
            lo = rng.uniform(-2.0, 22.0, size=3) + (100.0 if kind == "miss" else 0.0)
            extent = np.zeros(3) if kind == "flat" else rng.uniform(0.0, 12.0, size=3)
            boxes.append(np.array([lo, lo + extent]))
        packed = np.array(boxes).reshape(len(boxes), 2, 3)

        results = index.query_many(QUERY_FORMS[form](packed))
        assert len(results) == len(boxes)
        for (lo, hi), result in zip(packed, results):
            objects, pages = brute_force_query(index, lo, hi)
            assert result.object_ids.dtype == result.page_ids.dtype == np.int64
            assert np.array_equal(result.object_ids, objects)
            assert np.array_equal(result.page_ids, pages)
            single = index.query(AABB(lo, hi))
            assert np.array_equal(single.object_ids, result.object_ids)
            assert np.array_equal(single.page_ids, result.page_ids)

    def test_an_empty_batch(self, tissue_flat):
        assert tissue_flat.query_many([]) == []
        assert tissue_flat.query_many(iter(())) == []
        assert tissue_flat.query_many(np.zeros((0, 2, 3))) == []

    def test_regions_that_miss_the_dataset(self, tissue, tissue_rtree):
        far = tissue.bounds.hi + 10.0 * (tissue.bounds.extent + 1.0)
        inside = AABB.cube(tissue.bounds.center, 60_000.0)
        results = tissue_rtree.query_many([AABB(far, far + 1.0), inside, AABB(-far - 1.0, -far)])
        assert [r.n_objects for r in results[::2]] == [0, 0]
        assert [len(r.page_ids) for r in results[::2]] == [0, 0]
        objects, pages = brute_force_query(tissue_rtree, inside.lo, inside.hi)
        assert np.array_equal(results[1].object_ids, objects) and len(objects)
        assert np.array_equal(results[1].page_ids, pages)
