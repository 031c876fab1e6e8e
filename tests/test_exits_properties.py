"""Property tests on exit classification and extrapolation geometry."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.exits import estimate_gap, split_entries_exits_grouped
from repro.graph.traversal import Crossing

unit_coords = st.floats(-1.0, 1.0, allow_nan=False)
points = st.tuples(
    st.floats(-50, 50, allow_nan=False),
    st.floats(-50, 50, allow_nan=False),
    st.floats(-50, 50, allow_nan=False),
).map(np.array)


def crossing(point, direction) -> Crossing:
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if norm == 0:
        direction = np.array([1.0, 0.0, 0.0])
    else:
        direction = direction / norm
    return Crossing(0, np.asarray(point, dtype=float), direction)


class TestSplitProperties:
    @given(st.lists(st.tuples(points, points), max_size=12))
    def test_partition_is_complete_and_disjoint(self, raw):
        crossings = [crossing(p, d) for p, d in raw]
        center = np.zeros(3)
        movement = np.array([1.0, 0.5, -0.25])
        entries, exits = split_entries_exits_grouped([crossings], center, movement)[0]
        assert len(entries) + len(exits) == len(crossings)
        for c in crossings:
            in_entries = any(e is c for e in entries)
            in_exits = any(e is c for e in exits)
            assert in_entries != in_exits

    @given(points)
    def test_mirrored_movement_swaps_classification(self, movement_raw):
        movement = movement_raw + 1e-3  # avoid the zero vector
        center = np.zeros(3)
        c_front = crossing(movement * 2.0, movement)
        entries, exits = split_entries_exits_grouped([[c_front]], center, movement)[0]
        assert exits == [c_front]
        entries2, exits2 = split_entries_exits_grouped([[c_front]], center, -movement)[0]
        assert entries2 == [c_front]

    def test_zero_movement_treated_as_unknown(self):
        c = crossing([5.0, 0, 0], [1.0, 0, 0])
        entries, exits = split_entries_exits_grouped([[c]], np.zeros(3), np.zeros(3))[0]
        assert exits == [c] and entries == []


class TestExtrapolationProperties:
    @given(points, points, st.floats(0.0, 100.0, allow_nan=False))
    def test_extrapolation_distance(self, point, direction_raw, distance):
        c = crossing(point, direction_raw + 1e-3)
        beyond = c.extrapolate(distance)
        assert np.linalg.norm(beyond - c.point) == pytest.approx(distance, abs=1e-6)

    @given(points, points)
    def test_zero_extrapolation_is_identity(self, point, direction_raw):
        c = crossing(point, direction_raw + 1e-3)
        assert np.allclose(c.extrapolate(0.0), c.point)


class TestGapEstimateProperties:
    @given(st.lists(points, min_size=2, max_size=8), st.floats(0.1, 50.0, allow_nan=False))
    def test_never_negative(self, centers, side):
        assert estimate_gap(list(centers), side) >= 0.0

    @given(points, st.floats(0.1, 20.0, allow_nan=False), st.floats(0.0, 30.0, allow_nan=False))
    def test_recovers_constructed_gap(self, start, side, gap):
        direction = np.array([1.0, 0.0, 0.0])
        centers = [start, start + direction * (side + gap)]
        assert estimate_gap(centers, side) == pytest.approx(gap, abs=1e-9)
