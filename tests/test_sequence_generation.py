"""Guided-sequence generation against the per-step loop it replaced.

``generate_sequence`` resolves the arc walk in array passes: a windowed
``np.add.accumulate`` of the arc steps, ``Polyline.points_at`` for the
points and the row form of ``repro.util.norm`` for the distances
(DESIGN.md §12, §14).  The scalar loop -- advance the arc 2 % of the
side, look up one point, take one 1-D ``norm``, compare -- lives on here
as the oracle, together with the scalar one-point lookup it called, and
every generated query must equal it byte for byte.  So does the random
walk the sequence follows: ``NavigationGraph.random_walk`` against the
walk that rebuilt a reversed polyline per backward edge and appended
points one by one.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.dataset import Dataset, NavEdge, NavigationGraph, Polyline
from repro.util import norm
from repro.workload.sequence import (
    _make_query,
    _query_side,
    _walk_centers,
    generate_sequence,
)


def _scalar_point_at(path: Polyline, arc: float) -> np.ndarray:
    """The one-point lookup as the stepping loop called it: scalar arithmetic."""
    cumulative = path._cumulative
    arc = float(np.clip(arc, 0.0, path.length))
    idx = int(np.searchsorted(cumulative, arc, side="right") - 1)
    idx = min(idx, len(path.points) - 2)
    seg_len = cumulative[idx + 1] - cumulative[idx]
    if seg_len <= 0:
        return path.points[idx].copy()
    t = (arc - cumulative[idx]) / seg_len
    return path.points[idx] + t * (path.points[idx + 1] - path.points[idx])


def _stepping_centers(path, side, spacing, n_centers):
    """The replaced arc walk: one point lookup and one norm per arc step."""
    arc = side / 2.0
    arc_step = max(side * 0.02, 1e-9)
    centers = [(arc, _scalar_point_at(path, arc))]
    while len(centers) < n_centers and arc < path.length:
        previous = centers[-1][1]
        while (
            arc < path.length
            and norm(_scalar_point_at(path, arc) - previous) < spacing
        ):
            arc += arc_step
        if arc >= path.length:
            break
        centers.append((arc, _scalar_point_at(path, arc)))
    return centers


def _stepping_loop(dataset, rng, n_queries, volume, gap=0.0, aspect="cube"):
    """The replaced generator around the stepping walk."""
    side = _query_side(dataset, volume)
    spacing = side + float(gap)
    path = dataset.nav.random_walk(rng, spacing * n_queries * 6.0 + side)
    queries = [
        _make_query(dataset, center, path.tangent_at(arc), volume, side, aspect)
        for arc, center in _stepping_centers(path, side, spacing, n_queries)
    ]
    while len(queries) < n_queries:
        previous = queries[-1]
        center = previous.center + previous.direction * spacing
        queries.append(_make_query(dataset, center, previous.direction, volume, side, aspect))
    return path, queries


def _query_bytes(query) -> tuple:
    frustum = None
    if query.frustum is not None:
        frustum = (query.frustum.near_center.tobytes(), query.frustum.axis.tobytes())
    return (
        query.bounds.lo.tobytes(),
        query.bounds.hi.tobytes(),
        query.center.tobytes(),
        query.direction.tobytes(),
        frustum,
    )


def _assert_matches_stepping_loop(dataset, seed, n_queries, volume, gap=0.0, aspect="cube"):
    path, expected = _stepping_loop(
        dataset, np.random.default_rng(seed), n_queries, volume, gap, aspect
    )
    sequence = generate_sequence(
        dataset, np.random.default_rng(seed), n_queries, volume, gap=gap, aspect=aspect
    )
    assert sequence.path.points.tobytes() == path.points.tobytes()
    assert [_query_bytes(q) for q in sequence.queries] == [_query_bytes(q) for q in expected]
    return sequence


def _line_dataset(n_edges: int, edge_length: float) -> Dataset:
    """A straight chain of ``n_edges`` nav edges along x, dead ends both sides.

    A random walk on it zigzags between the ends; one that needs more
    than 10,000 edges stops short of the length it asked for.
    """
    nodes = np.zeros((n_edges + 1, 3))
    nodes[:, 0] = np.arange(n_edges + 1) * edge_length
    edges = [NavEdge(i, i + 1, Polyline(nodes[i : i + 2])) for i in range(n_edges)]
    return Dataset(
        name="line",
        p0=nodes[:-1],
        p1=nodes[1:],
        radius=np.full(n_edges, 0.5),
        structure_id=np.zeros(n_edges),
        branch_id=np.zeros(n_edges),
        nav=NavigationGraph(nodes, edges),
    )


class TestMatchesSteppingLoop:
    @pytest.mark.parametrize("gap", [-20.0, 0.0, 15.0])
    @pytest.mark.parametrize("aspect", ["cube", "frustum"])
    def test_neuron_tissue(self, tissue, aspect, gap):
        for seed in (3, 17):
            _assert_matches_stepping_loop(tissue, seed, 30, 40_000.0, gap, aspect)

    @pytest.mark.parametrize("gap", [-20.0, 0.0, 15.0])
    def test_road_grid_2d(self, roads, gap):
        for seed in (3, 17):
            _assert_matches_stepping_loop(roads, seed, 30, 900.0, gap)

    @pytest.mark.parametrize("gap", [-20.0, 0.0, 15.0])
    @pytest.mark.parametrize("name", ["lung", "arterial"])
    def test_lung_and_vascular(self, request, name, gap):
        dataset = request.getfixturevalue(name)
        for seed in (3, 17):
            _assert_matches_stepping_loop(dataset, seed, 30, 40_000.0, gap)

    def test_walk_shorter_than_spacing_falls_back_to_a_straight_line(self):
        # One nav edge shorter than the spacing: the walk zigzags on it,
        # no second center is ever far enough, and the path runs out.
        dataset = _line_dataset(n_edges=1, edge_length=5.0)
        sequence = _assert_matches_stepping_loop(dataset, 0, 6, 1_000.0)
        steps = np.diff([query.center for query in sequence.queries], axis=0)
        assert np.allclose(np.abs(steps).sum(axis=1), 10.0)

    def test_walk_cut_short_places_some_centers_then_falls_back(self):
        # 10,000 edges of 0.01 is 100 of arc for a walk that asked for
        # more than 1,400: some centers come from the path, the rest
        # from the fallback.
        dataset = _line_dataset(n_edges=2_000, edge_length=0.01)
        seed = 1
        path, queries = _stepping_loop(dataset, np.random.default_rng(seed), 60, 64.0)
        assert path.length < 4.0 * 60
        _assert_matches_stepping_loop(dataset, seed, 60, 64.0)


def _centers_bytes(centers) -> list[tuple[bytes, bytes]]:
    return [(np.float64(arc).tobytes(), point.tobytes()) for arc, point in centers]


class TestWalkBoundaries:
    """Straight paths with a side of 50: the step is 1.0, the arcs are
    exact, and distances land exactly on the spacing -- the ties the
    random walks never hit."""

    @staticmethod
    def _assert_walk(length, spacing, n_centers):
        path = Polyline(np.array([[0.0, 0.0, 0.0], [length, 0.0, 0.0]]))
        centers = _walk_centers(path, 50.0, spacing, n_centers)
        assert _centers_bytes(centers) == _centers_bytes(
            _stepping_centers(path, 50.0, spacing, n_centers)
        )
        return [float(arc) for arc, _ in centers]

    def test_a_distance_equal_to_the_spacing_places_the_center(self):
        assert self._assert_walk(200.0, 50.0, 4) == [25.0, 75.0, 125.0, 175.0]

    def test_an_arc_equal_to_the_length_is_past_the_end(self):
        assert self._assert_walk(75.0, 50.0, 4) == [25.0]

    def test_centers_on_a_window_edge(self):
        # A center every 5 steps puts one on the last arc of a window
        # (index 255), so the search for the next resumes in a new window.
        arcs = self._assert_walk(1_024.0, 5.0, 200)
        assert arcs == [25.0 + 5.0 * i for i in range(200)]


def _appending_walk(nav, rng, min_length, start_edge=None):
    """The replaced ``NavigationGraph.random_walk``: a fresh reversed
    polyline per backward edge, and points appended one at a time."""
    if not nav.edges:
        raise ValueError("navigation graph has no edges")
    edge_id = int(start_edge) if start_edge is not None else int(rng.integers(len(nav.edges)))
    edge = nav.edges[edge_id]
    forward = bool(rng.integers(2))
    points: list[np.ndarray] = []
    walked = 0.0
    current_node = edge.u if forward else edge.v
    visited_edges: set[int] = set()

    for _ in range(10_000):  # hard stop against degenerate graphs
        poly = edge.polyline if current_node == edge.u else edge.polyline.reversed()
        start_index = 0 if not points else 1  # avoid duplicating junction points
        for point in poly.points[start_index:]:
            points.append(point)
        walked += poly.length
        visited_edges.add(edge_id)
        current_node = edge.v if current_node == edge.u else edge.u
        if walked >= min_length:
            break
        options = [e for e in nav.edges_at(current_node) if e != edge_id]
        fresh = [e for e in options if e not in visited_edges]
        if fresh:
            options = fresh
        elif not options:
            options = [edge_id]  # dead end: turn around
        edge_id = int(options[int(rng.integers(len(options)))])
        edge = nav.edges[edge_id]
    if len(points) < 2:
        raise ValueError("random walk produced a degenerate path")
    return Polyline(np.array(points))


class TestRandomWalkMatchesAppendingWalk:
    """``random_walk`` keeps one reversed polyline per edge and joins the
    pieces with one ``np.concatenate``; the walk it replaced must agree
    on every point and on the rng draws, repeated walks included (the
    second one reuses the reversed polylines the first built)."""

    @staticmethod
    def _assert_walks_match(dataset, lengths, start_edge=None, seeds=(3, 17, 29)):
        for seed in seeds:
            for length in lengths:
                walk_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
                expected = _appending_walk(dataset.nav, walk_rng, length, start_edge)
                walk = dataset.nav.random_walk(rng, length, start_edge)
                assert walk.points.tobytes() == expected.points.tobytes()
                assert walk._cumulative.tobytes() == expected._cumulative.tobytes()
                assert rng.bit_generator.state == walk_rng.bit_generator.state

    @pytest.mark.parametrize("name", ["tissue", "roads", "lung", "arterial"])
    def test_every_dataset_kind(self, request, name):
        dataset = request.getfixturevalue(name)
        self._assert_walks_match(dataset, [1.0, 300.0, 5_000.0])
        self._assert_walks_match(dataset, [800.0], start_edge=len(dataset.nav.edges) - 1)

    def test_dead_ends_and_the_edge_cap(self):
        # One edge: the walk turns around at every end.  2,000 tiny
        # edges: the 10,000-edge cap stops it short of the length.
        self._assert_walks_match(_line_dataset(n_edges=1, edge_length=5.0), [1.0, 120.0])
        self._assert_walks_match(_line_dataset(n_edges=2_000, edge_length=0.01), [500.0])

    def test_a_backward_edge_adds_its_own_length(self):
        # Backwards this polyline sums 2^-53 + 2^-53 + 1 = 1 + 2^-52;
        # forwards 1 + 2^-53 + 2^-53 rounds to 1.  A walk that asks for
        # 1 + 2^-52 stops after one backward edge but not a forward one.
        # Seed 1 starts backwards, seed 3 forwards.
        tiny = 2.0**-53
        points = np.array([[0, 0, 0], [1, 0, 0], [1, tiny, 0], [1, tiny, tiny]], dtype=float)
        polyline = Polyline(points)
        assert (polyline.length, polyline.reversed().length) == (1.0, 1.0 + 2 * tiny)
        dataset = Dataset(
            name="rounding",
            p0=points[:-1],
            p1=points[1:],
            radius=np.full(3, 0.5),
            structure_id=np.zeros(3),
            branch_id=np.zeros(3),
            nav=NavigationGraph(points[[0, -1]], [NavEdge(0, 1, polyline)]),
        )
        self._assert_walks_match(dataset, [1.0 + 2 * tiny, 3.0], start_edge=0, seeds=(1, 3))


def _polylines():
    """Short polylines with repeated vertices (zero-length segments)."""
    coord = st.integers(-4, 4).map(float)
    vertex = st.tuples(coord, coord, coord)
    return st.lists(vertex, min_size=2, max_size=8).map(lambda pts: Polyline(np.array(pts)))


class TestPointsAt:
    @settings(deadline=None, max_examples=200)
    @given(poly=_polylines(), data=st.data())
    def test_each_row_is_the_one_point_lookup(self, poly, data):
        cumulative = poly._cumulative
        arc = st.one_of(
            st.floats(-2.0 * poly.length - 1.0, 2.0 * poly.length + 1.0),
            st.sampled_from(cumulative.tolist()),  # exactly on the vertices
        )
        arcs = np.array(data.draw(st.lists(arc, min_size=1, max_size=20)))
        points = poly.points_at(arcs)
        assert points.shape == (len(arcs), 3)
        for row, value in zip(points, arcs):
            assert row.tobytes() == poly.points_at([value])[0].tobytes()
            assert row.tobytes() == _scalar_point_at(poly, value).tobytes()

    def test_zero_length_segment_yields_its_start_point(self):
        poly = Polyline(np.array([[0, 0, 0], [2, 0, 0], [2, 0, 0], [2, 3, 0]], dtype=float))
        arcs = np.array([-1.0, 0.0, 1.0, 2.0, 3.5, 5.0, 9.0])
        expected = [[0, 0, 0], [0, 0, 0], [1, 0, 0], [2, 0, 0], [2, 1.5, 0], [2, 3, 0], [2, 3, 0]]
        assert poly.points_at(arcs).tolist() == expected
