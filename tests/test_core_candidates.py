"""Iterative candidate pruning (§4.3) on hand-built scenarios."""

import numpy as np
import pytest

from repro.core import CandidateTracker
from repro.core.exits import estimate_gap, split_entries_exits_grouped
from repro.datagen.dataset import Dataset, NavEdge, NavigationGraph, Polyline
from repro.geometry import AABB
from repro.graph import SpatialGraph
from repro.graph.traversal import Crossing


def multi_chain_dataset(chains: list[np.ndarray]) -> Dataset:
    """Several disjoint polyline chains; object ids are consecutive."""
    p0, p1, branch = [], [], []
    for chain_id, points in enumerate(chains):
        for a, b in zip(points[:-1], points[1:]):
            p0.append(a)
            p1.append(b)
            branch.append(chain_id)
    n = len(p0)
    nav = NavigationGraph(
        np.array([[0.0, 0, 0], [1.0, 0, 0]]),
        [NavEdge(0, 1, Polyline(np.array([[0.0, 0, 0], [1.0, 0, 0]])))],
    )
    return Dataset(
        name="chains",
        p0=np.array(p0),
        p1=np.array(p1),
        radius=np.zeros(n),
        structure_id=np.array(branch, dtype=np.int64),
        branch_id=np.array(branch, dtype=np.int64),
        nav=nav,
    )


def graph_of_chains(dataset: Dataset) -> SpatialGraph:
    graph = SpatialGraph(range(dataset.n_objects))
    for a in range(dataset.n_objects - 1):
        if dataset.branch_id[a] == dataset.branch_id[a + 1]:
            graph.add_edge(a, a + 1)
    return graph


def line_chain(y: float, x0: float, x1: float, step: float = 2.0) -> np.ndarray:
    xs = np.arange(x0, x1 + step / 2, step)
    return np.array([[x, y, 5.0] for x in xs])


class TestSplitEntriesExits:
    def test_without_movement_everything_is_exit(self):
        crossings = [Crossing(0, np.array([0.0, 0, 0]), np.array([1.0, 0, 0]))]
        entries, exits = split_entries_exits_grouped([crossings], np.zeros(3), None)[0]
        assert entries == [] and len(exits) == 1

    def test_front_back_classification(self):
        center = np.array([5.0, 5, 5])
        movement = np.array([1.0, 0, 0])
        front = Crossing(0, np.array([10.0, 5, 5]), np.array([1.0, 0, 0]))
        back = Crossing(1, np.array([0.0, 5, 5]), np.array([-1.0, 0, 0]))
        entries, exits = split_entries_exits_grouped([[front, back]], center, movement)[0]
        assert exits == [front] and entries == [back]


class TestEstimateGap:
    def test_no_history(self):
        assert estimate_gap([], 10.0) == 0.0
        assert estimate_gap([np.zeros(3)], 10.0) == 0.0

    def test_adjacent_queries_no_gap(self):
        centers = [np.zeros(3), np.array([10.0, 0, 0])]
        assert estimate_gap(centers, 10.0) == pytest.approx(0.0)

    def test_positive_gap(self):
        centers = [np.zeros(3), np.array([17.0, 0, 0])]
        assert estimate_gap(centers, 10.0) == pytest.approx(7.0)

    def test_overlapping_queries_clamp_to_zero(self):
        centers = [np.zeros(3), np.array([5.0, 0, 0])]
        assert estimate_gap(centers, 10.0) == 0.0


class TestPruning:
    def region(self, x0: float) -> AABB:
        return AABB([x0, 0, 0], [x0 + 10, 10, 10])

    def test_first_query_all_exiting_structures(self):
        # Two chains crossing the region, one fully inside.
        ds = multi_chain_dataset(
            [line_chain(2.0, -4, 24), line_chain(7.0, -4, 24), line_chain(5.0, 3, 7)]
        )
        graph = graph_of_chains(ds)
        tracker = CandidateTracker()
        tracks = tracker.update(ds, graph, self.region(0.0), movement=None)
        assert len(tracks) == 2  # interior chain has no exits

    def test_pruning_drops_diverging_structures(self):
        # Chain A continues along +x; chain B exists only in query 1.
        chain_a = line_chain(2.0, -4, 40)
        chain_b = line_chain(7.0, -4, 14)
        ds = multi_chain_dataset([chain_a, chain_b])
        tracker = CandidateTracker()

        region1 = self.region(0.0)
        in1 = np.flatnonzero(
            np.all((ds.obj_lo <= region1.hi) & (ds.obj_hi >= region1.lo), axis=1)
        )
        graph1 = graph_of_chains(ds).subgraph(in1)
        tracker.update(ds, graph1, region1, movement=None)
        assert len(tracker.tracks) == 2

        region2 = self.region(10.0)
        in2 = np.flatnonzero(
            np.all((ds.obj_lo <= region2.hi) & (ds.obj_hi >= region2.lo), axis=1)
        )
        graph2 = graph_of_chains(ds).subgraph(in2)
        tracks = tracker.update(ds, graph2, region2, movement=np.array([10.0, 0, 0]))
        # Chain B ends inside query 2 (no exit) -> only chain A remains.
        assert len(tracks) == 1
        remaining_branches = {
            int(ds.branch_id[obj]) for t in tracks for obj in t.objects
        }
        assert remaining_branches == {0}

    def test_reset_when_user_jumps(self):
        # Chain B is far away along x AND laterally offset by more than
        # the matching tolerance (0.6 * side = 6), so it cannot be a
        # continuation of chain A's exit ray.
        chain_a = line_chain(2.0, -4, 14)
        chain_b = line_chain(9.5, 96, 124)
        ds = multi_chain_dataset([chain_a, chain_b])
        tracker = CandidateTracker()

        region1 = self.region(0.0)
        in1 = np.flatnonzero(
            np.all((ds.obj_lo <= region1.hi) & (ds.obj_hi >= region1.lo), axis=1)
        )
        tracker.update(ds, graph_of_chains(ds).subgraph(in1), region1, movement=None)

        region2 = self.region(100.0)  # far away: nothing continues
        in2 = np.flatnonzero(
            np.all((ds.obj_lo <= region2.hi) & (ds.obj_hi >= region2.lo), axis=1)
        )
        tracks = tracker.update(
            ds, graph_of_chains(ds).subgraph(in2), region2, movement=np.array([100.0, 0, 0])
        )
        assert tracker.resets == 1
        assert len(tracks) >= 1  # re-seeded from the new query's structures

    def test_candidate_sizes_recorded(self):
        ds = multi_chain_dataset([line_chain(2.0, -4, 24)])
        tracker = CandidateTracker()
        tracker.update(ds, graph_of_chains(ds), self.region(0.0), movement=None)
        assert tracker.candidate_sizes == [1]

    def test_reset_clears_state(self):
        ds = multi_chain_dataset([line_chain(2.0, -4, 24)])
        tracker = CandidateTracker()
        tracker.update(ds, graph_of_chains(ds), self.region(0.0), movement=None)
        tracker.reset()
        assert tracker.tracks == [] and tracker.candidate_sizes == []

    def test_object_overlap_matching(self):
        """With adjacent queries the same chain matches via shared objects."""
        chain = line_chain(5.0, -4, 40)
        ds = multi_chain_dataset([chain])
        tracker = CandidateTracker()
        region1 = self.region(0.0)
        in1 = np.flatnonzero(
            np.all((ds.obj_lo <= region1.hi) & (ds.obj_hi >= region1.lo), axis=1)
        )
        tracker.update(ds, graph_of_chains(ds).subgraph(in1), region1, None)
        region2 = self.region(10.0)
        in2 = np.flatnonzero(
            np.all((ds.obj_lo <= region2.hi) & (ds.obj_hi >= region2.lo), axis=1)
        )
        tracks = tracker.update(
            ds, graph_of_chains(ds).subgraph(in2), region2, np.array([10.0, 0, 0])
        )
        assert len(tracks) == 1 and tracker.resets == 0

    def test_proximity_matching_across_gap(self):
        """With a gap (no shared objects) matching works via extrapolation."""
        chain = line_chain(5.0, -4, 60)
        ds = multi_chain_dataset([chain])
        tracker = CandidateTracker()
        region1 = self.region(0.0)
        in1 = np.flatnonzero(
            np.all((ds.obj_lo <= region1.hi) & (ds.obj_hi >= region1.lo), axis=1)
        )
        tracker.update(ds, graph_of_chains(ds).subgraph(in1), region1, None)
        region2 = self.region(25.0)  # 15-unit gap
        in2 = np.flatnonzero(
            np.all((ds.obj_lo <= region2.hi) & (ds.obj_hi >= region2.lo), axis=1)
        )
        # Objects in region2 do not overlap region1's object set.
        assert not (set(in1.tolist()) & set(in2.tolist()))
        tracks = tracker.update(
            ds, graph_of_chains(ds).subgraph(in2), region2, np.array([25.0, 0, 0])
        )
        assert len(tracks) == 1 and tracker.resets == 0
