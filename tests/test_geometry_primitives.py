"""Unit and property tests for segment primitives."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import (
    AABB,
    Segment,
    clip_segment_to_aabb,
    point_segment_distance,
    segment_aabb_intersects,
    segment_segment_distance,
    segments_aabb_mask,
)
from repro.util import norm

coords = st.floats(min_value=-100, max_value=100, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords, coords).map(np.array)

UNIT = AABB([0, 0, 0], [1, 1, 1])


class TestSegment:
    def test_length_and_midpoint(self):
        seg = Segment([0, 0, 0], [3, 4, 0])
        assert seg.length == pytest.approx(5.0)
        assert np.allclose(seg.midpoint, [1.5, 2, 0])

    def test_direction_unit(self):
        seg = Segment([0, 0, 0], [0, 0, 2])
        assert np.allclose(seg.direction, [0, 0, 1])

    def test_degenerate_direction_is_zero(self):
        seg = Segment([1, 1, 1], [1, 1, 1])
        assert np.allclose(seg.direction, 0.0)

    def test_aabb_includes_radius(self):
        seg = Segment([0, 0, 0], [1, 0, 0], radius=0.5)
        box = seg.aabb()
        assert np.allclose(box.lo, [-0.5, -0.5, -0.5])
        assert np.allclose(box.hi, [1.5, 0.5, 0.5])

    def test_point_at(self):
        seg = Segment([0, 0, 0], [2, 0, 0])
        assert np.allclose(seg.point_at(0.25), [0.5, 0, 0])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            Segment([0, 0], [1, 1])


class TestPointSegmentDistance:
    def test_closest_interior(self):
        assert point_segment_distance([0.5, 1, 0], [0, 0, 0], [1, 0, 0]) == pytest.approx(1.0)

    def test_closest_endpoint(self):
        assert point_segment_distance([2, 0, 0], [0, 0, 0], [1, 0, 0]) == pytest.approx(1.0)

    def test_degenerate_segment(self):
        assert point_segment_distance([1, 1, 0], [0, 0, 0], [0, 0, 0]) == pytest.approx(np.sqrt(2))


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


class TestVectorizedMask:
    def test_matches_scalar(self, rng):
        a = rng.uniform(-2, 3, size=(100, 3))
        b = rng.uniform(-2, 3, size=(100, 3))
        mask = segments_aabb_mask(a, b, UNIT)
        for i in range(100):
            assert mask[i] == segment_aabb_intersects(a[i], b[i], UNIT), i

    def test_lengths(self):
        a = np.zeros((2, 3))
        b = np.array([[3, 4, 0], [0, 0, 1]], dtype=float)
        assert np.allclose(norm(b - a), [5.0, 1.0])
