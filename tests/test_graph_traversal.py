"""Boundary crossings: exit points, directions, smoothing."""

import numpy as np
import pytest

from repro.datagen.dataset import Dataset, NavEdge, NavigationGraph, Polyline
from repro.geometry import AABB
from repro.graph import region_crossings
from repro.graph.traversal import Crossing, refine_exits, region_crossings_grouped
from tests.oracles.geometry import box_contains


def chain_dataset(points: np.ndarray) -> Dataset:
    """A dataset that is a single polyline chain of segments."""
    p0 = points[:-1]
    p1 = points[1:]
    n = len(p0)
    nav = NavigationGraph(
        np.array([points[0], points[-1]]), [NavEdge(0, 1, Polyline(points))]
    )
    return Dataset(
        name="chain",
        p0=p0,
        p1=p1,
        radius=np.zeros(n),
        structure_id=np.zeros(n, dtype=np.int64),
        branch_id=np.zeros(n, dtype=np.int64),
        nav=nav,
    )


REGION = AABB([0, 0, 0], [10, 10, 10])


class TestRegionCrossings:
    def test_through_chain_has_two_crossings(self):
        points = np.array([[-5, 5, 5], [5, 5, 5], [15, 5, 5]], dtype=float)
        ds = chain_dataset(points)
        crossings = region_crossings(ds, np.arange(ds.n_objects), REGION)
        assert len(crossings) == 2
        xs = sorted(c.point[0] for c in crossings)
        assert xs[0] == pytest.approx(0.0) and xs[1] == pytest.approx(10.0)

    def test_crossing_directions_point_outward(self):
        points = np.array([[-5, 5, 5], [5, 5, 5], [15, 5, 5]], dtype=float)
        ds = chain_dataset(points)
        for crossing in region_crossings(ds, np.arange(ds.n_objects), REGION):
            outward = crossing.point + crossing.direction * 0.1
            assert not box_contains(REGION, outward)

    def test_interior_chain_has_no_crossings(self):
        points = np.array([[2, 2, 2], [4, 4, 4], [6, 6, 6]], dtype=float)
        ds = chain_dataset(points)
        assert region_crossings(ds, np.arange(ds.n_objects), REGION) == []

    def test_exterior_object_contributes_nothing(self):
        points = np.array([[20, 20, 20], [25, 25, 25]], dtype=float)
        ds = chain_dataset(points)
        assert region_crossings(ds, np.arange(ds.n_objects), REGION) == []

    def test_groups_without_objects_have_no_crossings(self):
        points = np.array([[-5, 5, 5], [5, 5, 5]], dtype=float)
        ds = chain_dataset(points)
        assert region_crossings_grouped(ds, [[], np.array([], dtype=int)], REGION) == [[], []]

    def test_extrapolate(self):
        points = np.array([[5, 5, 5], [15, 5, 5]], dtype=float)
        ds = chain_dataset(points)
        (crossing,) = region_crossings(ds, np.array([0]), REGION)
        beyond = crossing.extrapolate(3.0)
        assert beyond[0] == pytest.approx(13.0)


class TestDirectionRefinement:
    def test_smooths_towards_local_trend(self):
        # A chain heading +x with one deviant last segment.
        points = np.array(
            [[6, 5, 5], [7, 5, 5], [8, 5, 5], [9, 5, 5], [10.5, 6.5, 5]], dtype=float
        )
        ds = chain_dataset(points)
        ids = np.arange(ds.n_objects)
        (crossing,) = region_crossings(ds, ids, REGION)
        (refined,) = refine_exits(ds, ids, [crossing], radius=5.0)
        # The refined direction leans more towards +x than the raw one.
        assert refined.direction[0] > crossing.direction[0] - 1e-9
        assert np.linalg.norm(refined.direction) == pytest.approx(1.0)

    def test_no_nearby_objects_keeps_original(self):
        points = np.array([[5, 5, 5], [15, 5, 5]], dtype=float)
        ds = chain_dataset(points)
        (crossing,) = region_crossings(ds, np.array([0]), REGION)
        (refined,) = refine_exits(ds, np.array([0]), [crossing], radius=1e-6)
        assert np.allclose(refined.direction, crossing.direction)

    @pytest.mark.parametrize(
        "points",
        [
            [[5, 5, 5], [5, 5, 5]],
            # Two segments across the crossing direction, one each way:
            # sign-aligned, their directions cancel.
            [[5, 4, 5], [5, 6, 5], [5, 4, 5]],
        ],
        ids=["zero-length", "cancelling"],
    )
    def test_no_direction_from_two_neighbours_keeps_original(self, points):
        ds = chain_dataset(np.array(points, dtype=float))
        crossing = Crossing(0, np.array([5.0, 5.0, 5.0]), np.array([1.0, 0.0, 0.0]))
        ids = np.arange(ds.n_objects)
        (refined,) = refine_exits(ds, ids, [crossing], radius=5.0)
        assert refined is crossing
