"""Segment primitives: the batched mask against its one-segment oracle,
and the oracles themselves (``tests/oracles/geometry.py``)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import AABB
from repro.geometry.primitives import perpendicular_frame, segments_clip_intervals
from repro.util import norm
from tests.oracles.geometry import (
    clip_segment_to_aabb,
    segment_aabb_intersects,
    segment_segment_distance,
)

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords, coords).map(np.array)

UNIT = AABB([0, 0, 0], [1, 1, 1])


class TestPerpendicularFrame:
    @given(points.filter(lambda p: norm(p) > 1e-3))
    def test_orthonormal_and_right_handed(self, p):
        w = p / norm(p)
        u, v = perpendicular_frame(w)
        frame = np.array([u, v, w])
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-9)
        assert np.allclose(np.cross(u, v), w, atol=1e-9)

    def test_helper_axis_switches_near_x(self):
        u, _ = perpendicular_frame(np.array([1.0, 0.0, 0.0]))
        assert np.allclose(u, [0, 0, 1])  # x crossed with the y axis
        u, _ = perpendicular_frame(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(u, [0, 1, 0])  # z crossed with the x axis


class TestSegmentSegmentDistance:
    def test_crossing_segments(self):
        d = segment_segment_distance([0, 0, 0], [1, 0, 0], [0.5, -1, 0], [0.5, 1, 0])
        assert d == pytest.approx(0.0)

    def test_parallel_segments(self):
        d = segment_segment_distance([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0])
        assert d == pytest.approx(1.0)

    def test_skew_segments(self):
        d = segment_segment_distance([0, 0, 0], [1, 0, 0], [0.5, -1, 1], [0.5, 1, 1])
        assert d == pytest.approx(1.0)

    def test_point_vs_point(self):
        d = segment_segment_distance([0, 0, 0], [0, 0, 0], [1, 1, 1], [1, 1, 1])
        assert d == pytest.approx(np.sqrt(3))

    @given(points, points, points, points)
    def test_symmetric(self, a0, a1, b0, b1):
        d1 = segment_segment_distance(a0, a1, b0, b1)
        d2 = segment_segment_distance(b0, b1, a0, a1)
        assert d1 == pytest.approx(d2, abs=1e-6)

    @given(points, points, points, points)
    def test_lower_bounded_by_sampled_distance(self, a0, a1, b0, b1):
        """The true minimum never exceeds any sampled pair distance."""
        d = segment_segment_distance(a0, a1, b0, b1)
        ts = np.linspace(0, 1, 5)
        sampled = min(
            float(np.linalg.norm((a0 + t * (a1 - a0)) - (b0 + s * (b1 - b0))))
            for t in ts
            for s in ts
        )
        assert d <= sampled + 1e-6


class TestClipping:
    def test_fully_inside(self):
        a, b = np.array([0.2, 0.2, 0.2]), np.array([0.8, 0.8, 0.8])
        clipped = clip_segment_to_aabb(a, b, UNIT)
        assert clipped is not None
        assert np.allclose(clipped[0], a) and np.allclose(clipped[1], b)

    def test_crossing_one_face(self):
        clipped = clip_segment_to_aabb([0.5, 0.5, 0.5], [2.0, 0.5, 0.5], UNIT)
        assert clipped is not None
        assert np.allclose(clipped[1], [1.0, 0.5, 0.5])

    def test_through_and_through(self):
        clipped = clip_segment_to_aabb([-1, 0.5, 0.5], [2, 0.5, 0.5], UNIT)
        assert clipped is not None
        assert np.allclose(clipped[0], [0, 0.5, 0.5])
        assert np.allclose(clipped[1], [1, 0.5, 0.5])

    def test_miss(self):
        assert clip_segment_to_aabb([2, 2, 2], [3, 3, 3], UNIT) is None

    def test_parallel_outside_slab(self):
        assert clip_segment_to_aabb([2, 0, 0], [2, 1, 0], UNIT) is None

    @given(points, points)
    def test_clipped_endpoints_inside_box(self, a, b):
        box = AABB([-10, -10, -10], [10, 10, 10])
        clipped = clip_segment_to_aabb(a, b, box)
        if clipped is not None:
            tolerance = 1e-7
            for p in clipped:
                assert np.all(p >= box.lo - tolerance)
                assert np.all(p <= box.hi + tolerance)


class TestClipIntervals:
    def test_through_and_through_interval(self):
        a = np.array([[-1.0, 0.5, 0.5], [0.2, 0.2, 0.2]])
        b = np.array([[2.0, 0.5, 0.5], [0.8, 0.8, 0.8]])
        ok, t0, t1 = segments_clip_intervals(a, b, UNIT)
        assert ok.tolist() == [True, True]
        assert t0 == pytest.approx([1 / 3, 0.0]) and t1 == pytest.approx([2 / 3, 1.0])

    def test_parallel_outside_slab_misses(self):
        a = np.array([[2.0, 0, 0], [0.5, 0.5, 2.0]])
        b = np.array([[2.0, 1, 0], [0.5, 0.5, 3.0]])
        ok, _, _ = segments_clip_intervals(a, b, UNIT)
        assert ok.tolist() == [False, False]


class TestVectorizedMask:
    def test_matches_scalar(self, rng):
        a = rng.uniform(-2, 3, size=(100, 3))
        b = rng.uniform(-2, 3, size=(100, 3))
        mask, _, _ = segments_clip_intervals(a, b, UNIT)
        for i in range(100):
            assert mask[i] == segment_aabb_intersects(a[i], b[i], UNIT), i

    def test_empty_batch(self):
        assert segments_clip_intervals(np.empty((0, 3)), np.empty((0, 3)), UNIT)[0].shape == (0,)

    def test_lengths(self):
        a = np.zeros((2, 3))
        b = np.array([[3, 4, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(norm(b - a), [5.0, 1.0])
