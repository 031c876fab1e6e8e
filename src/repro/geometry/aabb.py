"""Axis-aligned bounding boxes (AABBs).

The range queries in a guided spatial query sequence are axis-aligned
boxes (the paper uses cubes and view frusta; frusta are handled by
:mod:`repro.geometry.frustum` and conservatively enclosed in an AABB for
index lookups).  This module provides a small immutable ``AABB`` value
type plus :func:`boxes_overlap`, the one box-vs-boxes test every
vectorized path runs over ``(n, 3)`` corner arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AABB", "boxes_overlap"]


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

    # -- combinators --------------------------------------------------------

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

    def __repr__(self) -> str:
        lo = np.array2string(self.lo, precision=2)
        hi = np.array2string(self.hi, precision=2)
        return f"AABB(lo={lo}, hi={hi})"


def boxes_overlap(lo: np.ndarray, hi: np.ndarray, qlo: np.ndarray, qhi: np.ndarray) -> np.ndarray:
    """Which of ``n`` boxes overlap their query box: the one box-vs-boxes test.

    ``lo`` and ``hi`` are ``(n, 3)`` corner arrays; ``qlo`` and ``qhi``
    are one query box's ``(3,)`` corners (broadcast) or ``(n, 3)``
    per-row query corners.  Boxes that only share a face overlap, and
    a NaN corner overlaps nothing.  The three per-axis columns are
    and-ed directly: ``.all(axis=1)`` over an ``(n, 3)`` bool takes a
    reduction path about ten times slower, for the same booleans
    (DESIGN.md §11, "Row gathers and box tests").
    """
    ok = (lo <= qhi) & (hi >= qlo)
    return ok[:, 0] & ok[:, 1] & ok[:, 2]
