"""Line-segment primitives.

The BBP tissue models represent neuron morphologies as 3D cylinders; the
paper reduces each cylinder to the straight line segment between its two
endpoints when building the proximity graph (§7.1: "SCOUT reduces the
cylinder to a line segment by solely using the two endpoints").  The same
simplification serves the arterial tree, and road segments are already
segments.  This module provides the segment math the rest of the system
needs: distances, AABB clipping, and vectorized intersection masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB

__all__ = [
    "Segment",
    "clip_segment_to_aabb",
    "point_segment_distance",
    "segment_aabb_intersects",
    "segment_lengths",
    "segment_segment_distance",
    "segments_aabb_mask",
    "segments_clip_intervals",
]

_EPS = 1e-12


@dataclass(frozen=True)
class Segment:
    """A 3D line segment with an optional radius (capsule/cylinder)."""

    a: np.ndarray
    b: np.ndarray
    radius: float = 0.0

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.shape != (3,) or b.shape != (3,):
            raise ValueError("segment endpoints must be 3D points")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self) -> float:
        return float(np.linalg.norm(self.b - self.a))

    @property
    def midpoint(self) -> np.ndarray:
        return (self.a + self.b) / 2.0

    @property
    def direction(self) -> np.ndarray:
        """Unit direction from ``a`` to ``b`` (zero vector if degenerate)."""
        delta = self.b - self.a
        norm = np.linalg.norm(delta)
        if norm < _EPS:
            return np.zeros(3)
        return delta / norm

    def aabb(self) -> AABB:
        lo = np.minimum(self.a, self.b) - self.radius
        hi = np.maximum(self.a, self.b) + self.radius
        return AABB(lo, hi)

    def point_at(self, t: float) -> np.ndarray:
        """Linear interpolation: ``t=0`` is ``a``, ``t=1`` is ``b``."""
        return self.a + float(t) * (self.b - self.a)


def segment_lengths(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lengths of ``n`` segments given ``(n, 3)`` endpoint arrays."""
    return np.linalg.norm(np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64), axis=1)


def point_segment_distance(point, a, b) -> float:
    """Euclidean distance from a point to segment ``[a, b]``."""
    point = np.asarray(point, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    ab = b - a
    denom = float(ab @ ab)
    if denom < _EPS:
        return float(np.linalg.norm(point - a))
    t = float(np.clip((point - a) @ ab / denom, 0.0, 1.0))
    closest = a + t * ab
    return float(np.linalg.norm(point - closest))


def segment_segment_distance(a0, a1, b0, b1) -> float:
    """Minimum distance between segments ``[a0, a1]`` and ``[b0, b1]``.

    Classic clamped closest-point computation (Ericson, *Real-Time
    Collision Detection*, §5.1.9).  Used to validate grid-hashing edges
    against a brute-force proximity reference.
    """
    a0 = np.asarray(a0, dtype=np.float64)
    a1 = np.asarray(a1, dtype=np.float64)
    b0 = np.asarray(b0, dtype=np.float64)
    b1 = np.asarray(b1, dtype=np.float64)

    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)

    if a < _EPS and e < _EPS:
        return float(np.linalg.norm(r))
    if a < _EPS:
        t = np.clip(f / e, 0.0, 1.0)
        s = 0.0
    else:
        c = float(d1 @ r)
        if e < _EPS:
            t = 0.0
            s = np.clip(-c / a, 0.0, 1.0)
        else:
            b = float(d1 @ d2)
            denom = a * e - b * b
            if denom > _EPS:
                s = np.clip((b * f - c * e) / denom, 0.0, 1.0)
            else:
                s = 0.0
            t = (b * s + f) / e
            if t < 0.0:
                t = 0.0
                s = np.clip(-c / a, 0.0, 1.0)
            elif t > 1.0:
                t = 1.0
                s = np.clip((b - c) / a, 0.0, 1.0)
    closest1 = a0 + s * d1
    closest2 = b0 + t * d2
    return float(np.linalg.norm(closest1 - closest2))


def _slab_clip(a: np.ndarray, delta: np.ndarray, box: AABB) -> tuple[float, float] | None:
    """Liang-Barsky style slab clipping of the parametric line ``a + t*delta``.

    Returns the ``(t_enter, t_exit)`` interval intersected with ``[0, 1]``
    or ``None`` when the segment misses the box.
    """
    t0, t1 = 0.0, 1.0
    for axis in range(3):
        d = delta[axis]
        lo = box.lo[axis] - a[axis]
        hi = box.hi[axis] - a[axis]
        if abs(d) < _EPS:
            if lo > 0.0 or hi < 0.0:
                return None
            continue
        ta = lo / d
        tb = hi / d
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return None
    return t0, t1


def segment_aabb_intersects(a, b, box: AABB) -> bool:
    """Exact segment-vs-box overlap test."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return _slab_clip(a, b - a, box) is not None


def clip_segment_to_aabb(a, b, box: AABB) -> tuple[np.ndarray, np.ndarray] | None:
    """The portion of segment ``[a, b]`` inside ``box``.

    Returns a pair of endpoints, or ``None`` if the segment misses the
    box.  The returned sub-segment may be degenerate (a single point)
    when the segment only grazes a face.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = b - a
    interval = _slab_clip(a, delta, box)
    if interval is None:
        return None
    t0, t1 = interval
    return a + t0 * delta, a + t1 * delta


def segments_clip_intervals(
    a: np.ndarray, b: np.ndarray, box: AABB
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized slab clip of ``n`` segments against one box.

    Returns ``(ok, t0, t1)``: whether each segment hits the box and the
    clipped parametric interval within ``[0, 1]``.  This is the batched
    counterpart of :func:`_slab_clip` -- same epsilon, same per-axis
    quotients, and max/min are exact in any order -- so ``a + t0*delta``
    / ``a + t1*delta`` reproduce :func:`clip_segment_to_aabb`'s
    endpoints bit for bit.  ``t0``/``t1`` are meaningful only where
    ``ok`` is true.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = b - a

    # All three slabs at once, as (n, 3) arrays.
    lo = box.lo - a
    hi = box.hi - a
    parallel = np.abs(delta) < _EPS
    # Parallel segments must start inside the slab.
    ok = ~(parallel & ((lo > 0.0) | (hi < 0.0))).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(parallel, -np.inf, lo / delta)
        tb = np.where(parallel, np.inf, hi / delta)
    swap = ta > tb
    t0 = np.maximum(0.0, np.where(swap, tb, ta).max(axis=1))
    t1 = np.minimum(1.0, np.where(swap, ta, tb).min(axis=1))
    ok &= t0 <= t1
    return ok, t0, t1


def segments_aabb_mask(a: np.ndarray, b: np.ndarray, box: AABB) -> np.ndarray:
    """Vectorized exact segment-vs-box test for ``(n, 3)`` endpoint arrays.

    Implements the slab test across all segments at once; used by indexes
    to refine candidate sets returned from page-level lookups.
    """
    ok, _, _ = segments_clip_intervals(a, b, box)
    return ok
