"""Unit and property tests for AABB algebra."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import AABB, boxes_overlap

coords = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def boxes(draw):
    a = np.array([draw(coords) for _ in range(3)])
    b = np.array([draw(coords) for _ in range(3)])
    return AABB(np.minimum(a, b), np.maximum(a, b))


class TestConstruction:
    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            AABB([1.0, 0.0, 0.0], [0.0, 1.0, 1.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            AABB([0.0, 0.0], [1.0, 1.0])

    def test_cube_volume(self):
        box = AABB.cube([0.0, 0.0, 0.0], 27.0)
        assert box.volume == pytest.approx(27.0)
        assert np.allclose(box.extent, 3.0)

    def test_cube_rejects_nonpositive_volume(self):
        with pytest.raises(ValueError):
            AABB.cube([0.0, 0.0, 0.0], 0.0)

    def test_from_center_extent_scalar(self):
        box = AABB.from_center_extent([1.0, 2.0, 3.0], 4.0)
        assert np.allclose(box.center, [1.0, 2.0, 3.0])
        assert np.allclose(box.extent, 4.0)

    def test_from_points(self):
        pts = np.array([[0, 0, 0], [1, 2, 3], [-1, 5, 2]], dtype=float)
        box = AABB.from_points(pts)
        assert np.allclose(box.lo, [-1, 0, 0])
        assert np.allclose(box.hi, [1, 5, 3])

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            AABB.from_points(np.empty((0, 3)))

    def test_corners_are_immutable(self):
        box = AABB.cube([0.0, 0.0, 0.0], 1.0)
        with pytest.raises(ValueError):
            box.lo[0] = 5.0


class TestCombinators:
    def test_inflate_grows_every_side(self):
        box = AABB([0, 0, 0], [1, 1, 1]).inflate(0.5)
        assert np.allclose(box.lo, -0.5)
        assert np.allclose(box.hi, 1.5)

    def test_inflate_negative_collapses_to_center(self):
        box = AABB([0, 0, 0], [1, 1, 1]).inflate(-10.0)
        assert np.allclose(box.lo, box.hi)
        assert np.allclose(box.lo, 0.5)


def reduced_overlap(lo, hi, qlo, qhi):
    """The ``np.all(..., axis=1)`` form ``boxes_overlap`` replaced."""
    return np.all((lo <= qhi) & (hi >= qlo), axis=1)


def boxes_intersect(a: AABB, b: AABB) -> bool:
    """One pair of boxes, scalar: they overlap (or share a face) on every axis."""
    return bool(np.all(a.lo <= b.hi) and np.all(b.lo <= a.hi))


class TestVectorizedIntersection:
    def test_matches_scalar(self, rng):
        box = AABB([0, 0, 0], [1, 1, 1])
        lo = rng.uniform(-2, 2, size=(50, 3))
        hi = lo + rng.uniform(0, 1, size=(50, 3))
        mask = boxes_overlap(lo, hi, box.lo, box.hi)
        for i in range(50):
            assert mask[i] == boxes_intersect(AABB(lo[i], hi[i]), box)

    def test_per_row_query_boxes(self, rng):
        lo = rng.uniform(-2, 2, size=(200, 3))
        hi = lo + rng.uniform(0, 1, size=(200, 3))
        qlo = rng.uniform(-2, 2, size=(200, 3))
        qhi = qlo + rng.uniform(0, 1, size=(200, 3))
        mask = boxes_overlap(lo, hi, qlo, qhi)
        assert mask.dtype == bool and mask.shape == (200,)
        assert np.array_equal(mask, reduced_overlap(lo, hi, qlo, qhi))
        for i in range(200):
            assert mask[i] == boxes_intersect(AABB(lo[i], hi[i]), AABB(qlo[i], qhi[i]))

    def test_shared_faces_overlap(self):
        # Each box touches the unit cube on one face, edge or corner only.
        lo = np.array([[1.0, 0, 0], [-1, 0, 0], [1, 1, 1], [1, 1, 1.5]])
        hi = np.array([[2.0, 1, 1], [0, 1, 1], [2, 2, 2], [2, 2, 2]])
        qlo, qhi = np.zeros(3), np.ones(3)
        mask = boxes_overlap(lo, hi, qlo, qhi)
        assert mask.tolist() == [True, True, True, False]
        assert np.array_equal(mask, reduced_overlap(lo, hi, qlo, qhi))

    def test_zero_extent_boxes(self):
        points = np.array([[0.5, 0.5, 0.5], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + 1e-12]])
        qlo, qhi = np.zeros(3), np.ones(3)
        mask = boxes_overlap(points, points, qlo, qhi)
        assert mask.tolist() == [True, True, False]
        assert np.array_equal(mask, reduced_overlap(points, points, qlo, qhi))
        # A point query box against the points themselves.
        mask = boxes_overlap(points, points, points[1], points[1])
        assert mask.tolist() == [False, True, False]

    def test_nan_corners_overlap_nothing(self, rng):
        lo = rng.uniform(-1, 1, size=(30, 3))
        hi = lo + 1.0
        lo[::3, 0] = np.nan
        hi[1::3, 2] = np.nan
        qlo, qhi = np.full(3, -5.0), np.full(3, 5.0)
        mask = boxes_overlap(lo, hi, qlo, qhi)
        assert not mask[0::3].any() and not mask[1::3].any() and mask[2::3].all()
        assert np.array_equal(mask, reduced_overlap(lo, hi, qlo, qhi))
        query = np.where(rng.random((30, 3)) < 0.2, np.nan, 0.0)
        assert np.array_equal(
            boxes_overlap(lo, hi, query, query + 1.0), reduced_overlap(lo, hi, query, query + 1.0)
        )

    def test_empty(self):
        empty = np.empty((0, 3))
        assert boxes_overlap(empty, empty, np.zeros(3), np.ones(3)).shape == (0,)


class TestProperties:
    @given(boxes())
    def test_volume_non_negative(self, box):
        assert box.volume >= 0.0
