"""View-frustum geometry tests."""

import numpy as np
import pytest

from repro.geometry import Frustum
from tests.oracles.geometry import box_contains, frustum_volume


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
        assert frustum_volume(f) == pytest.approx(30_000.0, rel=1e-6)

    def test_centered_on_request(self):
        f = Frustum.from_volume([5, 6, 7], [0, 1, 0], 1000.0)
        assert np.allclose(f.near_center + f.axis * (f.depth / 2.0), [5, 6, 7])

    def test_rejects_bad_volume(self):
        with pytest.raises(ValueError):
            Frustum.from_volume([0, 0, 0], [1, 0, 0], -5.0)


class TestBounding:
    def test_corners_inside_bounding_box(self):
        f = Frustum.from_volume([3, -2, 5], [1, 2, -1], 2000.0)
        box = f.bounding_aabb()
        assert box_contains(box, f.corners()).all()

    def test_volume_of_bounding_box_exceeds_frustum(self):
        f = Frustum.from_volume([0, 0, 0], [1, 0, 0], 1234.0)
        assert f.bounding_aabb().volume >= frustum_volume(f)
