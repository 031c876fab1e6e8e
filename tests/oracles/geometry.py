"""Per-segment geometry: the slab clip, segment distances, the grid DDA.

``repro.geometry.primitives.segments_clip_intervals`` batches
:func:`slab_clip` and must equal it bit for bit; the sampled
rasterization of ``repro.graph.builder`` approximates
:func:`cells_of_segment`.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import AABB, UniformGrid
from repro.util import dot, norm

_EPS = 1e-12  # the batched clip's
_GRID_EPS = 1e-9  # UniformGrid's


def box_contains(box: AABB, points) -> np.ndarray:
    """Whether each point of ``points`` (or the one point) lies in the closed box."""
    points = np.asarray(points, dtype=np.float64)
    return np.all((points >= box.lo) & (points <= box.hi), axis=-1)


def frustum_volume(f) -> float:
    """A frustum's volume: ``depth / 3 * (A_near + A_far + sqrt(A_near * A_far))``."""
    near, far = (2.0 * f.near_half) ** 2, (2.0 * f.far_half) ** 2
    return f.depth / 3.0 * (near + far + np.sqrt(near * far))


def slab_clip(a: np.ndarray, delta: np.ndarray, box: AABB) -> tuple[float, float] | None:
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
    return slab_clip(a, b - a, box) is not None


def clip_segment_to_aabb(a, b, box: AABB) -> tuple[np.ndarray, np.ndarray] | None:
    """The portion of segment ``[a, b]`` inside ``box``.

    Returns a pair of endpoints, or ``None`` if the segment misses the
    box.  The returned sub-segment may be degenerate (a single point)
    when the segment only grazes a face.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = b - a
    interval = slab_clip(a, delta, box)
    if interval is None:
        return None
    t0, t1 = interval
    return a + t0 * delta, a + t1 * delta


def segment_segment_distance(a0, a1, b0, b1) -> float:
    """Minimum distance between segments ``[a0, a1]`` and ``[b0, b1]``.

    Classic clamped closest-point computation (Ericson, *Real-Time
    Collision Detection*, §5.1.9).
    """
    a0 = np.asarray(a0, dtype=np.float64)
    a1 = np.asarray(a1, dtype=np.float64)
    b0 = np.asarray(b0, dtype=np.float64)
    b1 = np.asarray(b1, dtype=np.float64)

    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    a = dot(d1, d1)
    e = dot(d2, d2)
    f = dot(d2, r)

    if a < _EPS and e < _EPS:
        return norm(r)
    if a < _EPS:
        t = np.clip(f / e, 0.0, 1.0)
        s = 0.0
    else:
        c = dot(d1, r)
        if e < _EPS:
            t = 0.0
            s = np.clip(-c / a, 0.0, 1.0)
        else:
            b = dot(d1, d2)
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
    return norm(closest1 - closest2)


def cells_of_segment(grid: UniformGrid, a, b) -> list[tuple[int, int, int]]:
    """All cells of ``grid`` crossed by segment ``[a, b]`` (clipped to the grid).

    A conservative 3D DDA: steps through cell boundaries along the
    segment, which visits every crossed cell exactly once.  Returns an
    empty list for segments entirely outside the grid.
    """
    clipped = clip_segment_to_aabb(a, b, grid.bounds)
    if clipped is None:
        return []
    p0, p1 = clipped
    start = grid.cell_of_point(p0)
    end = grid.cell_of_point(p1)
    if start == end:
        return [start]

    cells = [start]
    delta = p1 - p0
    length = norm(delta)
    if length < _GRID_EPS:
        return cells
    direction = delta / length
    ext = grid.cell_extent

    current = np.array(start, dtype=int)
    position = p0.copy()
    travelled = 0.0
    # Walk boundary-to-boundary; bounded by the number of cells a
    # segment can cross (sum of grid shape) as a safety net.
    max_steps = int(sum(grid.shape)) + 3
    for _ in range(max_steps):
        # Distance to the next cell boundary along each axis.
        t_next = np.full(3, np.inf)
        for axis in range(3):
            d = direction[axis]
            if abs(d) < _GRID_EPS:
                continue
            if d > 0:
                boundary = grid.bounds.lo[axis] + (current[axis] + 1) * ext[axis]
            else:
                boundary = grid.bounds.lo[axis] + current[axis] * ext[axis]
            t_next[axis] = (boundary - position[axis]) / d
        axis = int(np.argmin(t_next))
        step = t_next[axis]
        if not np.isfinite(step):
            break
        travelled += step
        if travelled >= length - _GRID_EPS:
            break
        position = position + direction * (step + _GRID_EPS)
        current[axis] += 1 if direction[axis] > 0 else -1
        if np.any(current < 0) or np.any(current >= np.asarray(grid.shape)):
            break
        cells.append(tuple(int(c) for c in current))
        if tuple(current) == end:
            break
    if end not in cells:
        cells.append(end)
    return cells
