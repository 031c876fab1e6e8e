"""View-frustum geometry tests."""

import numpy as np
import pytest

from repro.geometry import Frustum


class TestConstruction:
    def test_rejects_zero_axis(self):
        with pytest.raises(ValueError):
            Frustum([0, 0, 0], [0, 0, 0], depth=1.0, near_half=0.5, far_half=1.0)

    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            Frustum([0, 0, 0], [0, 0, 1], depth=-1.0, near_half=0.5, far_half=1.0)

    def test_rejects_inverted_taper(self):
        with pytest.raises(ValueError):
            Frustum([0, 0, 0], [0, 0, 1], depth=1.0, near_half=2.0, far_half=1.0)

    def test_axis_normalized(self):
        f = Frustum([0, 0, 0], [0, 0, 10], depth=1.0, near_half=0.5, far_half=1.0)
        assert np.linalg.norm(f.axis) == pytest.approx(1.0)


class TestFromVolume:
    def test_volume_matches_request(self):
        f = Frustum.from_volume([0, 0, 0], [1, 0, 0], 30_000.0)
        assert f.volume == pytest.approx(30_000.0, rel=1e-6)

    def test_centered_on_request(self):
        f = Frustum.from_volume([5, 6, 7], [0, 1, 0], 1000.0)
        assert np.allclose(f.center, [5, 6, 7])

    def test_rejects_bad_volume(self):
        with pytest.raises(ValueError):
            Frustum.from_volume([0, 0, 0], [1, 0, 0], -5.0)


class TestContainment:
    def frustum(self):
        return Frustum([0, 0, 0], [0, 0, 1], depth=2.0, near_half=0.5, far_half=1.0)

    def test_contains_axis_points(self):
        f = self.frustum()
        assert f.contains_point([0, 0, 0.1])
        assert f.contains_point([0, 0, 1.9])

    def test_narrow_end_excludes_wide_offsets(self):
        f = self.frustum()
        # Offset 0.75 fits at the far face (half=1.0) but not the near one.
        assert f.contains_point([0.75, 0, 1.9])
        assert not f.contains_point([0.75, 0, 0.05])

    def test_excludes_behind_and_beyond(self):
        f = self.frustum()
        assert not f.contains_point([0, 0, -0.1])
        assert not f.contains_point([0, 0, 2.1])

    def test_vectorized_matches_scalar(self, rng):
        f = Frustum.from_volume([0, 0, 0], [1, 1, 0], 500.0)
        pts = rng.uniform(-10, 10, size=(200, 3))
        mask = f.contains_points(pts)
        for i in range(200):
            assert mask[i] == f.contains_point(pts[i])


class TestBounding:
    def test_corners_inside_bounding_box(self):
        f = Frustum.from_volume([3, -2, 5], [1, 2, -1], 2000.0)
        box = f.bounding_aabb()
        for corner in f.corners():
            assert box.contains_point(corner)

    def test_bounding_box_contains_sampled_interior(self, rng):
        f = Frustum.from_volume([0, 0, 0], [0, 0, 1], 1000.0)
        box = f.bounding_aabb()
        pts = rng.uniform(box.lo - 1, box.hi + 1, size=(300, 3))
        inside = f.contains_points(pts)
        for p in pts[inside]:
            assert box.contains_point(p)

    def test_volume_of_bounding_box_exceeds_frustum(self):
        f = Frustum.from_volume([0, 0, 0], [1, 0, 0], 1234.0)
        assert f.bounding_aabb().volume >= f.volume
