"""Differential tests of the array-native prediction path.

Four per-query Python loops left ``src/`` -- the bucket-dict graph
build, the eager per-component exit refinement, the per-exit gather of
a track's refinement (``tests/oracles/graph.py``), and the per-step
``AABB`` generator behind incremental prefetch regions.  They live on
here as oracles: the array passes that replaced them must produce the
same *bits in the same order*, because edge order fixes adjacency-set
order, which fixes DFS / component / exit order, which fixes the rng
draws of the planner (DESIGN.md §11).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import CandidateTracker
from repro.core.candidates import MATCH_DISTANCE_FACTOR, CandidateTrack
from repro.core.exits import split_entries_exits_grouped
from repro.datagen.dataset import Dataset, NavEdge, NavigationGraph, Polyline
from repro.geometry import AABB
from repro.geometry.grid import UniformGrid
from repro.geometry.primitives import segments_clip_intervals
from repro.graph import SpatialGraph, build_graph, build_graph_grid_hash
from repro.graph.builder import _sample_segment_cells
from repro.graph.traversal import Crossing, refine_exits, region_crossings_grouped
from repro.index import FlatIndex, STRTree
from repro.util import dot, norm
from repro.workload import generate_sequence
from tests.oracles.geometry import slab_clip
from tests.oracles.graph import edges_of, refine_crossing_direction
from tests.oracles.index import ScalarSTRTree, pages_for_region_scalar


def segment_dataset(p0: np.ndarray, p1: np.ndarray) -> Dataset:
    n = len(p0)
    nav = NavigationGraph(
        np.array([[0.0, 0, 0], [1.0, 0, 0]]),
        [NavEdge(0, 1, Polyline(np.array([[0.0, 0, 0], [1.0, 0, 0]])))],
    )
    return Dataset(
        name="segments",
        p0=p0,
        p1=p1,
        radius=np.zeros(n),
        structure_id=np.zeros(n, dtype=np.int64),
        branch_id=np.zeros(n, dtype=np.int64),
        nav=nav,
    )


# -- oracle 1: the bucket-dict graph build ---------------------------------------


def bucket_loop_build(dataset, object_ids, region, resolution):
    """The replaced builder: ``dict[cell] -> [owners]``, nested pair loops."""
    graph = SpatialGraph(object_ids)
    work = 0
    if len(object_ids):
        grid = UniformGrid.with_cell_count(region, max(1, int(resolution)))
        owners, cells = _sample_segment_cells(
            grid, object_ids, dataset.p0[object_ids], dataset.p1[object_ids]
        )
        buckets: dict[int, list[int]] = {}
        for owner, cell in zip(owners.tolist(), cells.tolist()):
            buckets.setdefault(cell, []).append(owner)
        work += sum(len(members) for members in buckets.values())
        for members in buckets.values():
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    graph.add_edge(members[i], members[j])
            work += len(members) * (len(members) - 1) // 2
    return graph, work


def ordered(graph: SpatialGraph):
    """Everything downstream iterates: vertex, neighbour and component order."""
    return (
        sorted(edges_of(graph)),
        [(v, list(graph._adjacency[v])) for v in graph.vertices()],
        [list(component) for component in graph.connected_components()],
    )


class TestGroupedBuilder:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        resolution=st.sampled_from([64, 512, 4096, 32768]),
    )
    def test_matches_bucket_loop_on_random_segments(self, seed, resolution):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        region = AABB.from_center_extent(rng.uniform(-50, 50, size=3), rng.uniform(5, 60))
        # Short and long segments, clustered so cells are shared, some
        # sticking out of (or missing) the region altogether.
        p0 = rng.uniform(region.lo - 3.0, region.hi + 3.0, size=(n, 3))
        p1 = p0 + rng.normal(scale=rng.choice([0.0, 0.5, 4.0, 40.0]), size=(n, 3))
        dataset = segment_dataset(p0, p1)
        object_ids = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))

        report = build_graph_grid_hash(dataset, object_ids, region, resolution)
        graph, work = bucket_loop_build(dataset, object_ids, region, resolution)
        assert report.work_units == work
        assert ordered(report.graph) == ordered(graph)

    def test_matches_bucket_loop_on_query_results(self, tissue, tissue_flat, rng):
        sequence = generate_sequence(tissue, rng, n_queries=12, volume=60_000.0)
        for query in sequence.queries:
            ids = tissue_flat.query(query.bounds).object_ids
            for resolution in (64, 4096, 32768):
                report = build_graph_grid_hash(tissue, ids, query.bounds, resolution)
                graph, work = bucket_loop_build(tissue, ids, query.bounds, resolution)
                assert report.work_units == work
                assert ordered(report.graph) == ordered(graph)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_pairs_are_the_sampled_cells_in_pair_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        region = AABB.from_center_extent(np.zeros(3), 20.0)
        p0 = rng.uniform(-12, 12, size=(n, 3))
        p1 = p0 + rng.normal(scale=3.0, size=(n, 3))
        grid = UniformGrid.with_cell_count(region, int(rng.choice([64, 4096, 32768])))
        ids = np.arange(n, dtype=np.int64) + 1000
        owners, cells = _sample_segment_cells(grid, ids, p0, p1)

        spacing = max(float(grid.cell_extent.min()) * 0.45, 1e-9)
        _, ny, nz = grid.shape
        expected = set()
        for owner, a, b in zip(ids.tolist(), p0, p1):
            count = min(int(np.ceil(np.linalg.norm(b - a) / spacing)) + 1, 64)
            for t in np.linspace(0.0, 1.0, count):
                x, y, z = grid.cell_of_point(a + t * (b - a))
                expected.add((owner, (x * ny + y) * nz + z))
        assert list(zip(owners.tolist(), cells.tolist())) == sorted(expected)


# -- oracle 2: eager per-component refinement ------------------------------------------


class EagerTracker(CandidateTracker):
    """The replaced update: every component's exits refined before pruning."""

    def update(self, dataset, graph, region, movement):
        side = float(np.cbrt(max(region.volume, 1e-30)))
        tolerance = MATCH_DISTANCE_FACTOR * side
        components = graph.connected_components()
        traversal_work = 0
        component_ids = [np.fromiter(c, dtype=np.int64) for c in components]
        all_crossings = region_crossings_grouped(dataset, component_ids, region)

        new_tracks, unmatched = [], []
        for component, object_ids, crossings in zip(components, component_ids, all_crossings):
            entries, exits = split_entries_exits_grouped([crossings], region.center, movement)[0]
            exits = [
                refine_crossing_direction(dataset, object_ids, e, radius=side * 0.3)
                for e in exits
            ]
            track = CandidateTrack(frozenset(component), exits, entries)
            if not self.tracks:
                if track.has_exits:
                    new_tracks.append(track)
                    traversal_work += len(component)
                continue
            matched = any(
                self._object_overlap(old, component)
                or self._proximity_match(old, entries, tolerance)
                for old in self.tracks
            )
            if matched:
                track.age = 1 + max(
                    (old.age for old in self.tracks if self._object_overlap(old, component)),
                    default=0,
                )
                new_tracks.append(track)
                traversal_work += len(component)
            else:
                unmatched.append(track)

        if self.tracks and not new_tracks:
            self.resets += 1
            new_tracks = [t for t in unmatched if t.has_exits]
            traversal_work += sum(len(t.objects) for t in new_tracks)
        with_exits = [t for t in new_tracks if t.has_exits]
        if with_exits:
            new_tracks = with_exits
        self.tracks = new_tracks
        self.last_traversal_work = traversal_work
        self._history_sizes.append(len(new_tracks))
        return new_tracks


def crossing_bits(crossing):
    return (crossing.object_id, crossing.point.tobytes(), crossing.direction.tobytes())


def track_bits(track):
    return (
        track.objects,
        track.age,
        [crossing_bits(c) for c in track.exits],
        [crossing_bits(c) for c in track.entries],
    )


def assert_trackers_agree(dataset, index, queries):
    """Feed both trackers the same walk; tracks must match after every update."""
    deferred, eager = CandidateTracker(), EagerTracker()
    previous = None
    for query in queries:
        ids = index.query(query.bounds).object_ids
        graph = build_graph(dataset, ids, query.bounds).graph
        movement = None if previous is None else query.center - previous
        previous = query.center
        got = deferred.update(dataset, graph, query.bounds, movement)
        want = eager.update(dataset, graph, query.bounds, movement)
        assert [track_bits(t) for t in got] == [track_bits(t) for t in want]
        assert deferred.last_traversal_work == eager.last_traversal_work
    assert deferred.candidate_sizes == eager.candidate_sizes
    assert deferred.resets == eager.resets
    return deferred


class TestDeferredRefinement:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        volume=st.sampled_from([10_000.0, 60_000.0, 115_000.0]),
    )
    def test_random_guided_walks(self, tissue, tissue_flat, seed, volume):
        rng = np.random.default_rng(seed)
        sequence = generate_sequence(tissue, rng, n_queries=10, volume=volume)
        assert_trackers_agree(tissue, tissue_flat, sequence.queries)

    def test_first_query_refines_every_exiting_structure(self, tissue, tissue_flat, rng):
        sequence = generate_sequence(tissue, rng, n_queries=1, volume=80_000.0)
        tracker = assert_trackers_agree(tissue, tissue_flat, sequence.queries)
        assert tracker.tracks and all(t.has_exits for t in tracker.tracks)

    def test_walk_that_abandons_its_structure(self, tissue, tissue_flat):
        # Two unrelated walks back to back: at the seam no structure of
        # the second walk continues one of the first.
        rng = np.random.default_rng(5)
        walks = [generate_sequence(tissue, rng, n_queries=6, volume=30_000.0) for _ in range(6)]
        first = walks[0].queries
        far = max(walks[1:], key=lambda w: np.linalg.norm(w.queries[0].center - first[-1].center))
        tracker = assert_trackers_agree(tissue, tissue_flat, first + far.queries)
        assert tracker.resets >= 1


# -- oracle 2a: one gather per exit ------------------------------------------------------


def assert_refines_like_the_oracle(dataset, component_ids, exits, radius):
    got = refine_exits(dataset, component_ids, exits, radius)
    want = [refine_crossing_direction(dataset, component_ids, e, radius) for e in exits]
    assert [crossing_bits(c) for c in got] == [crossing_bits(c) for c in want]
    return got


def unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestTrackRefinement:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        radius=st.sampled_from([0.0, 0.5, 2.0, 6.0, 50.0]),
    )
    def test_matches_per_exit_refinement(self, seed, radius):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        p0 = rng.uniform(-10, 10, size=(n, 3))
        p1 = p0 + rng.normal(scale=rng.choice([0.0, 0.3, 3.0]), size=(n, 3))
        # Some zero-length objects, whose deltas the mean must skip.
        zero = rng.random(n) < 0.2
        p1[zero] = p0[zero]
        dataset = segment_dataset(p0, p1)
        component_ids = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        exits = []
        for _ in range(int(rng.integers(0, 7))):
            # Exits on a midpoint, near a few of them, or far from all.
            anchor = (p0[rng.integers(n)] + p1[rng.integers(n)]) / 2.0
            point = anchor + rng.normal(scale=rng.choice([0.0, 1.0, 100.0]), size=3)
            exits.append(Crossing(int(rng.integers(n)), point, unit(rng.normal(size=3))))
        assert_refines_like_the_oracle(dataset, component_ids, exits, radius)

    def test_each_near_count(self):
        # Midpoints at x = 0, 1, 2, 3 on a line; the radius picks 0, 1,
        # 2, 3 or 4 of them for an exit at x = -0.5.
        p0 = np.array([[x, 0.0, 0.0] for x in range(4)]) - [0.0, 0.5, 0.0]
        p1 = p0 + [0.0, 1.0, 0.0]
        dataset = segment_dataset(p0, p1)
        direction = unit([1.0, 0.2, 0.0])
        exits = [Crossing(0, np.array([-0.5, 0.0, 0.0]), direction)]
        for radius, expect_changed in ((0.1, False), (0.6, True), (1.6, True), (2.6, True)):
            (got,) = assert_refines_like_the_oracle(dataset, np.arange(4), exits, radius)
            assert (got is exits[0]) != expect_changed

    def test_a_track_mixing_near_counts(self):
        p0 = np.array([[x, 0.0, 0.0] for x in range(6)], dtype=float)
        p1 = p0 + [1.0, 0.1, 0.0]
        dataset = segment_dataset(p0, p1)
        exits = [
            Crossing(0, np.array([-3.0, 0.0, 0.0]), unit([-1.0, 0.0, 0.0])),  # none near
            Crossing(1, np.array([0.5, 0.0, 0.0]), unit([-1.0, 0.0, 0.0])),  # one
            Crossing(2, np.array([6.0, 0.0, 0.0]), unit([1.0, 0.0, 0.0])),  # two
            Crossing(3, np.array([3.0, 0.0, 0.0]), unit([0.0, 1.0, 0.0])),  # three or more
        ]
        got = assert_refines_like_the_oracle(dataset, np.arange(6)[::-1], exits, 1.2)
        assert got[0] is exits[0]
        assert all(g is not e for g, e in zip(got[1:], exits[1:]))

    def test_degenerate_tracks(self):
        direction = unit([1.0, 0.0, 0.0])
        at_origin = Crossing(0, np.zeros(3), direction)
        # Near objects of zero length: no direction to average.
        points = segment_dataset(np.zeros((2, 3)), np.zeros((2, 3)))
        (got,) = assert_refines_like_the_oracle(points, np.arange(2), [at_origin], 1.0)
        assert got is at_origin
        # Two opposite deltas square to the exit: alignment 0 keeps both
        # signs, and their mean is the zero vector.
        p0 = np.array([[0.0, -1.0, 0.0], [0.0, 1.0, 0.0]])
        opposite = segment_dataset(p0, -p0)
        (got,) = assert_refines_like_the_oracle(opposite, np.arange(2), [at_origin], 1.0)
        assert got is at_origin
        # Three or more coincident midpoints: an axis from a zero matrix.
        stacked = segment_dataset(np.zeros((4, 3)), np.zeros((4, 3)))
        assert_refines_like_the_oracle(stacked, np.arange(4), [at_origin], 1.0)
        # No exits at all, and an exit exactly on the radius.
        assert refine_exits(stacked, np.arange(4), [], 1.0) == []
        on_edge = Crossing(0, np.array([1.0, 0.0, 0.0]), unit([0.0, 1.0, 1.0]))
        (got,) = assert_refines_like_the_oracle(stacked, np.arange(4), [on_edge], 1.0)
        assert got is not on_edge

    def test_tracker_refinement_on_query_results(self, tissue, tissue_flat, rng):
        sequence = generate_sequence(tissue, rng, n_queries=10, volume=60_000.0)
        refined = 0
        for query in sequence.queries:
            ids = tissue_flat.query(query.bounds).object_ids
            graph = build_graph(tissue, ids, query.bounds).graph
            side = float(np.cbrt(query.bounds.volume))
            components = [np.fromiter(c, dtype=np.int64) for c in graph.connected_components()]
            crossings = region_crossings_grouped(tissue, components, query.bounds)
            for object_ids, exits in zip(components, crossings):
                assert_refines_like_the_oracle(tissue, object_ids, exits, side * 0.3)
                refined += len(exits)
        assert refined > 10


# -- oracle 2b: one scalar score per crossing ---------------------------------------------


def scalar_split(crossings, region_center, movement):
    """The replaced classifier: two 1-D dots and a norm per crossing."""
    if movement is None or norm(movement) < 1e-12:
        return [], list(crossings)
    forward = movement / norm(movement)
    entries, exits = [], []
    for crossing in crossings:
        offset = dot(crossing.point - region_center, forward)
        heading = dot(crossing.direction, forward)
        score = offset + 0.25 * heading * norm(crossing.point - region_center)
        (exits if score > 0 else entries).append(crossing)
    return entries, exits


class TestGroupedSplit:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), moving=st.booleans())
    def test_matches_per_crossing_scores(self, seed, moving):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-40, 40, size=3)
        groups = []
        for _ in range(int(rng.integers(0, 6))):
            group = []
            for _ in range(int(rng.integers(0, 5))):
                direction = rng.normal(size=3)
                # Some crossings sit on (or a hair off) the dividing plane.
                point = center + rng.normal(scale=rng.choice([0.0, 1e-9, 10.0]), size=3)
                group.append(Crossing(len(group), point, direction / np.linalg.norm(direction)))
            groups.append(group)
        movement = rng.normal(size=3) * rng.choice([1e-13, 1.0, 30.0]) if moving else None

        got = split_entries_exits_grouped(groups, center, movement)
        assert len(got) == len(groups)
        for group, (entries, exits) in zip(groups, got):
            want_entries, want_exits = scalar_split(group, center, movement)
            assert [id(c) for c in entries] == [id(c) for c in want_entries]
            assert [id(c) for c in exits] == [id(c) for c in want_exits]
            single = split_entries_exits_grouped([group], center, movement)[0]
            assert [id(c) for c in single[1]] == [id(c) for c in want_exits]


class TestSlabClip:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_all_axes_at_once_matches_the_scalar_clip(self, seed):
        rng = np.random.default_rng(seed)
        box = AABB.from_center_extent(rng.uniform(-5, 5, size=3), rng.uniform(1, 8, size=3))
        n = 60
        a = rng.uniform(box.lo - 4, box.hi + 4, size=(n, 3))
        b = rng.uniform(box.lo - 4, box.hi + 4, size=(n, 3))
        # Axis-parallel segments, inside and outside their slab, and
        # endpoints exactly on a face.
        parallel = rng.random((n, 3)) < 0.3
        b[parallel] = a[parallel]
        on_face = rng.random(n) < 0.2
        a[on_face, 0] = box.lo[0]
        ok, t0, t1 = segments_clip_intervals(a, b, box)
        for i in range(n):
            interval = slab_clip(a[i], b[i] - a[i], box)
            assert bool(ok[i]) == (interval is not None), i
            if interval is not None:
                assert (t0[i], t1[i]) == interval, i


# -- oracle 3: one AABB per probe box ---------------------------------------------------


def packed(regions) -> np.ndarray:
    return np.array([[r.lo, r.hi] for r in regions]).reshape(len(regions), 2, 3)


class TestPackedCorners:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_packed_corners_match_per_box_probes(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 10, size=(int(rng.integers(1, 200)), 3))
        dataset = segment_dataset(points, points.copy())
        regions = []
        for _ in range(int(rng.integers(0, 12))):
            lo = rng.uniform(-2, 10, size=3)
            regions.append(AABB(lo, lo + rng.uniform(0.0, 5, size=3)))
        boxes = packed(regions)
        for index in (
            STRTree(dataset, fanout=4),
            FlatIndex(dataset, fanout=4),
            # Answers batches through SpatialIndex's own per-region loop.
            ScalarSTRTree(dataset, fanout=4),
        ):
            answers = index.pages_for_regions(boxes)
            assert len(answers) == len(regions)
            for region, pages in zip(regions, answers):
                expected = pages_for_region_scalar(index, region)
                assert pages.dtype == expected.dtype
                assert np.array_equal(pages, expected)
            # A slice of packed corners is packed corners.
            for a, b in zip(index.pages_for_regions(boxes[1:4]), answers[1:4]):
                assert np.array_equal(a, b)

    def test_packed_corners_on_the_tissue(self, tissue, tissue_flat, rng):
        regions = [
            AABB.from_center_extent(
                tissue.centroids[rng.integers(tissue.n_objects)], rng.uniform(1.0, 60.0)
            )
            for _ in range(24)
        ]
        regions.append(AABB([1e7] * 3, [1e7 + 1] * 3))
        for region, pages in zip(regions, tissue_flat.pages_for_regions(packed(regions))):
            assert np.array_equal(pages, pages_for_region_scalar(tissue_flat, region))
