"""View frusta for the walkthrough-visualization workloads.

The paper's visualization microbenchmarks issue *view frustum culling*
queries: truncated pyramids oriented along the navigation direction
(Figure 10 lists "Frustum" as the aspect-ratio of those workloads).  A
frustum here is parameterized by an apex-side (near) rectangle, a far
rectangle, a center, an axis, and a depth; the defining property is that
it narrows toward the viewer.

Spatial indexes only understand AABBs, so a frustum exposes its enclosing
AABB for page lookups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.primitives import perpendicular_frame
from repro.util import norm

__all__ = ["Frustum"]

_EPS = 1e-12

#: Near/far side-length ratio of :meth:`Frustum.from_volume` frusta.
TAPER = 0.5


def _unit_axis(axis) -> np.ndarray:
    w = np.asarray(axis, dtype=np.float64)
    length = norm(w)
    if length < _EPS:
        raise ValueError("frustum axis must be non-zero")
    return w / length


@dataclass(frozen=True)
class Frustum:
    """A truncated square pyramid pointing along ``axis``.

    ``near_center`` is the center of the near (small) face; the far face
    lies at ``near_center + depth * axis``.  ``near_half`` and
    ``far_half`` are the half side lengths of the two square faces
    (``near_half <= far_half``).
    """

    near_center: np.ndarray
    axis: np.ndarray
    depth: float
    near_half: float
    far_half: float

    def __post_init__(self) -> None:
        near_center = np.asarray(self.near_center, dtype=np.float64)
        w = _unit_axis(self.axis)
        u, v = perpendicular_frame(w)
        if self.depth <= 0:
            raise ValueError("frustum depth must be positive")
        if self.near_half < 0 or self.far_half < self.near_half:
            raise ValueError("frustum requires 0 <= near_half <= far_half")
        object.__setattr__(self, "near_center", near_center)
        object.__setattr__(self, "axis", w)
        object.__setattr__(self, "_u", u)
        object.__setattr__(self, "_v", v)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_volume(cls, center, direction, volume: float) -> "Frustum":
        """A frustum of the requested volume centered on ``center``.

        :data:`TAPER` is the ratio near/far side length.  The frustum
        depth equals its far side length, which keeps the shape cube-like
        and comparable to the paper's cube queries of the same volume.
        The exact frustum volume is ``depth/3 * (A_near + A_far +
        sqrt(A_near*A_far))`` and we solve for the far side.
        """
        if volume <= 0:
            raise ValueError("frustum volume must be positive")
        # With s = far side, near side = taper*s, depth = s:
        # V = s/3 * (s^2*taper^2 + s^2 + s^2*taper) = s^3/3 * (1 + taper + taper^2)
        shape_factor = (1.0 + TAPER + TAPER * TAPER) / 3.0
        far_side = (float(volume) / shape_factor) ** (1.0 / 3.0)
        depth = far_side
        center = np.asarray(center, dtype=np.float64)
        w = _unit_axis(direction)
        near_center = center - w * (depth / 2.0)
        return cls(near_center, w, depth, TAPER * far_side / 2.0, far_side / 2.0)

    # -- measures ---------------------------------------------------------

    @property
    def far_center(self) -> np.ndarray:
        return self.near_center + self.axis * self.depth

    def corners(self) -> np.ndarray:
        """The 8 corner points (4 near + 4 far) as an ``(8, 3)`` array."""
        pts = []
        for center, half in ((self.near_center, self.near_half), (self.far_center, self.far_half)):
            for su in (-1.0, 1.0):
                for sv in (-1.0, 1.0):
                    pts.append(center + su * half * self._u + sv * half * self._v)
        return np.array(pts)

    def bounding_aabb(self) -> AABB:
        """The tightest AABB enclosing the frustum (used for index lookups)."""
        return AABB.from_points(self.corners())
