"""Axis-aligned bounding boxes (AABBs).

The range queries in a guided spatial query sequence are axis-aligned
boxes (the paper uses cubes and view frusta; frusta are handled by
:mod:`repro.geometry.frustum` and conservatively enclosed in an AABB for
index lookups).  This module provides a small immutable ``AABB`` value
type plus vectorized helpers over ``(n, 3)`` corner arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AABB", "aabbs_intersect_arrays", "union_all"]


def _as_point(value) -> np.ndarray:
    point = np.asarray(value, dtype=np.float64)
    if point.shape != (3,):
        raise ValueError(f"expected a 3D point, got shape {point.shape}")
    return point


@dataclass(frozen=True)
class AABB:
    """An axis-aligned box given by its minimum and maximum corners.

    Degenerate boxes (zero extent along some axis) are allowed; boxes with
    ``lo > hi`` on any axis are rejected at construction time.
    """

    lo: np.ndarray = field()
    hi: np.ndarray = field()

    def __post_init__(self) -> None:
        lo = _as_point(self.lo)
        hi = _as_point(self.hi)
        if np.any(lo > hi):
            raise ValueError(f"invalid AABB: lo {lo} exceeds hi {hi}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_center_extent(cls, center, extent) -> "AABB":
        """Build a box from its center and full edge lengths."""
        center = _as_point(center)
        extent = np.broadcast_to(np.asarray(extent, dtype=np.float64), (3,))
        half = extent / 2.0
        return cls(center - half, center + half)

    @classmethod
    def cube(cls, center, volume: float) -> "AABB":
        """Build a cube of the given volume centered at ``center``.

        This mirrors the paper's workload parameterization, which states
        query sizes as volumes in cubic micrometers (e.g. 80,000 µm³).
        """
        if volume <= 0:
            raise ValueError(f"cube volume must be positive, got {volume}")
        side = float(volume) ** (1.0 / 3.0)
        return cls.from_center_extent(center, side)

    @classmethod
    def from_points(cls, points) -> "AABB":
        """The tightest box containing every point of an ``(n, 3)`` array."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) == 0:
            raise ValueError(f"expected a non-empty (n, 3) array, got {points.shape}")
        return cls(points.min(axis=0), points.max(axis=0))

    # -- basic measures ---------------------------------------------------

    @property
    def center(self) -> np.ndarray:
        return (self.lo + self.hi) / 2.0

    @property
    def extent(self) -> np.ndarray:
        """Full edge lengths along x, y, z."""
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    # -- predicates --------------------------------------------------------

    def contains_point(self, point) -> bool:
        point = _as_point(point)
        return bool(np.all(point >= self.lo) and np.all(point <= self.hi))

    def contains_points(self, points) -> np.ndarray:
        """Vectorized containment test for an ``(n, 3)`` array."""
        points = np.asarray(points, dtype=np.float64)
        return np.all((points >= self.lo) & (points <= self.hi), axis=1)

    def contains_box(self, other: "AABB") -> bool:
        return bool(np.all(other.lo >= self.lo) and np.all(other.hi <= self.hi))

    def intersects(self, other: "AABB") -> bool:
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    # -- combinators --------------------------------------------------------

    def union(self, other: "AABB") -> "AABB":
        return AABB(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def intersection(self, other: "AABB") -> "AABB | None":
        """The overlap box, or ``None`` when the boxes are disjoint."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        if np.any(lo > hi):
            return None
        return AABB(lo, hi)

    def inflate(self, margin: float) -> "AABB":
        """Grow (or, for negative margins, shrink) the box on every side."""
        margin_vec = np.full(3, float(margin))
        lo = self.lo - margin_vec
        hi = self.hi + margin_vec
        if np.any(lo > hi):
            # Shrinking past the center collapses to the center point.
            center = self.center
            return AABB(center, center)
        return AABB(lo, hi)

    def translate(self, offset) -> "AABB":
        offset = _as_point(offset)
        return AABB(self.lo + offset, self.hi + offset)

    def clamp_point(self, point) -> np.ndarray:
        """The closest point of the box to ``point``."""
        return np.clip(_as_point(point), self.lo, self.hi)

    def distance_to_point(self, point) -> float:
        """Euclidean distance from the box to a point (0 when inside)."""
        delta = _as_point(point) - self.clamp_point(point)
        return float(np.linalg.norm(delta))

    def boundary_distance(self, point) -> float:
        """Distance from an *interior* point to the nearest face.

        For exterior points this returns the (positive) distance to the
        box instead, so the value is always non-negative.
        """
        point = _as_point(point)
        if not self.contains_point(point):
            return self.distance_to_point(point)
        return float(min((point - self.lo).min(), (self.hi - point).min()))

    def corners(self) -> np.ndarray:
        """All 8 corner points as an ``(8, 3)`` array."""
        xs, ys, zs = zip(self.lo, self.hi)
        grid = np.array(np.meshgrid(xs, ys, zs, indexing="ij"), dtype=np.float64)
        return grid.reshape(3, 8).T

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo = np.array2string(self.lo, precision=2)
        hi = np.array2string(self.hi, precision=2)
        return f"AABB(lo={lo}, hi={hi})"


def aabbs_intersect_arrays(lo: np.ndarray, hi: np.ndarray, box: AABB) -> np.ndarray:
    """Vectorized box-vs-boxes overlap test.

    ``lo`` and ``hi`` are ``(n, 3)`` corner arrays of ``n`` boxes; the
    result is a boolean mask of which of them intersect ``box``.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    return np.all((lo <= box.hi) & (hi >= box.lo), axis=1)


def union_all(boxes) -> AABB:
    """The tightest AABB enclosing every box of a non-empty iterable."""
    boxes = list(boxes)
    if not boxes:
        raise ValueError("union_all() needs at least one box")
    lo = np.min([b.lo for b in boxes], axis=0)
    hi = np.max([b.hi for b in boxes], axis=0)
    return AABB(lo, hi)
