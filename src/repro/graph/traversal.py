"""Region-restricted traversal: where do structures cross a query box?

SCOUT's prediction step (§4.4) traverses the result graph depth-first
from the candidate structures to the locations where the graph *exits*
the query region, then extrapolates those exits linearly.  The geometric
primitive underneath is the :class:`Crossing`: the point where an
object's segment pierces a face of the query box, together with the
outward direction of the structure at that point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB
from repro.geometry.primitives import segments_clip_intervals
from repro.util import dot, norm

__all__ = [
    "Crossing",
    "refine_exits",
    "region_crossings",
    "region_crossings_grouped",
]

_EPS = 1e-9


@dataclass(frozen=True)
class Crossing:
    """A point where a structure pierces the boundary of a query region."""

    object_id: int
    point: np.ndarray
    direction: np.ndarray  # unit vector, oriented outward through the face

    def extrapolate(self, distance: float) -> np.ndarray:
        """The point ``distance`` beyond the boundary along the structure."""
        return self.point + self.direction * float(distance)


def _crossing_arrays(dataset: Dataset, object_ids: np.ndarray, region: AABB):
    """Vectorized clip of every object's segment against the region.

    Returns ``(entry_mask, exit_mask, entry_points, exit_points,
    directions)`` over the input objects.  The arithmetic mirrors the
    per-object oracle (``tests/oracles/graph.py``) operation for
    operation (Liang-Barsky slab clip, then endpoint-displacement
    tests), so the resulting points and directions are bit-identical to
    it.
    """
    a = dataset.p0[object_ids]
    b = dataset.p1[object_ids]
    delta = b - a
    ok, t0, t1 = segments_clip_intervals(a, b, region)

    norms = norm(delta)
    ok &= norms >= _EPS
    safe_norms = np.where(norms < _EPS, 1.0, norms)
    directions = delta / safe_norms[:, None]

    inside_a = a + t0[:, None] * delta
    inside_b = a + t1[:, None] * delta
    entry_mask = ok & (norm(inside_a - a) > _EPS)
    exit_mask = ok & (norm(inside_b - b) > _EPS)
    return entry_mask, exit_mask, inside_a, inside_b, directions


def _crossings_from_arrays(
    object_ids: np.ndarray,
    entry_mask: np.ndarray,
    exit_mask: np.ndarray,
    entry_points: np.ndarray,
    exit_points: np.ndarray,
    directions: np.ndarray,
    rows: np.ndarray,
) -> list[Crossing]:
    """Assemble :class:`Crossing` objects for the given rows, in order."""
    crossings: list[Crossing] = []
    for i in rows:
        object_id = int(object_ids[i])
        if entry_mask[i]:
            # The segment enters the region here; travelling from the
            # region outward through that point means going against the
            # segment direction.
            crossings.append(Crossing(object_id, entry_points[i].copy(), -directions[i]))
        if exit_mask[i]:
            crossings.append(Crossing(object_id, exit_points[i].copy(), directions[i].copy()))
    return crossings


def region_crossings(
    dataset: Dataset,
    object_ids,
    region: AABB,
) -> list[Crossing]:
    """All boundary crossings of the given objects with ``region``.

    Only objects whose segments actually pierce a face contribute;
    objects fully inside produce nothing.  The segment clipping runs
    over ``(n, 3)`` endpoint arrays in one vectorized pass; only the
    (few) piercing objects materialize Python-level crossings.
    """
    object_ids = np.asarray(object_ids, dtype=np.int64)
    if len(object_ids) == 0:
        return []
    arrays = _crossing_arrays(dataset, object_ids, region)
    entry_mask, exit_mask = arrays[0], arrays[1]
    rows = np.flatnonzero(entry_mask | exit_mask)
    return _crossings_from_arrays(object_ids, *arrays, rows)


def region_crossings_grouped(
    dataset: Dataset,
    groups: list[np.ndarray],
    region: AABB,
) -> list[list[Crossing]]:
    """Per-group crossings of several object-id groups with one region.

    Equivalent to calling :func:`region_crossings` once per group, but
    the segment clipping for *all* groups (e.g. every connected
    component of a result graph) runs as a single vectorized pass.
    """
    if not groups:
        return []
    sizes = [len(g) for g in groups]
    all_ids = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
    if len(all_ids) == 0:
        return [[] for _ in groups]
    arrays = _crossing_arrays(dataset, all_ids, region)
    entry_mask, exit_mask = arrays[0], arrays[1]
    hits = entry_mask | exit_mask

    out: list[list[Crossing]] = []
    offset = 0
    for size in sizes:
        rows = offset + np.flatnonzero(hits[offset : offset + size])
        out.append(_crossings_from_arrays(all_ids, *arrays, rows))
        offset += size
    return out


def refine_exits(
    dataset: Dataset,
    component_ids: np.ndarray,
    exits: list[Crossing],
    radius: float,
) -> list[Crossing]:
    """Smooth each exit's direction over the structure's trailing window.

    A single short segment is a noisy estimate of where the structure is
    heading; averaging the (sign-aligned) directions of the component's
    objects within ``radius`` of the crossing point gives the local
    trend of the fiber, which is what §4.4's linear extrapolation of the
    *graph* should follow.

    The component's endpoints, midpoints and deltas are gathered once,
    in ``component_ids`` order, and one broadcast norm gives every
    exit's near mask; the axis or mean is then taken per exit over its
    near rows, in that order (DESIGN.md §11).
    """
    if not exits:
        return []
    component_ids = np.asarray(component_ids, dtype=np.int64)
    p0 = dataset.p0[component_ids]
    p1 = dataset.p1[component_ids]
    mid = (p0 + p1) / 2.0
    deltas = p1 - p0
    points = np.array([crossing.point for crossing in exits])
    near_masks = norm(mid[None, :, :] - points[:, None, :]) <= radius
    return [_refined(crossing, near, mid, deltas) for crossing, near in zip(exits, near_masks)]


def _refined(
    crossing: Crossing, near: np.ndarray, mid: np.ndarray, deltas: np.ndarray
) -> Crossing:
    """One exit smoothed over the component rows its ``near`` mask selects."""
    n_near = int(near.sum())
    if n_near == 0:
        return crossing

    if n_near >= 3:
        # Principal axis of the nearby object midpoints.  This tracks
        # the *structure's* local axis even when individual object
        # orientations are uninformative (e.g. mesh-face edges point
        # around a tube's rings, not along the airway).
        points = mid[near]
        centered = points - points.mean(axis=0)
        # The one LAPACK call left (DESIGN.md §14): an SVD has no
        # fixed-order elementwise form, and its axis only steers a
        # prediction, which CI's golden metrics pin on three kernels.
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        axis = vt[0]
        if dot(axis, crossing.direction) < 0:
            axis = -axis
        length = norm(axis)
        if length > _EPS:
            return Crossing(crossing.object_id, crossing.point, axis / length)

    # Too few neighbors for a stable axis: average the sign-aligned
    # object directions instead.
    near_deltas = deltas[near]
    norms = norm(near_deltas)
    ok = norms > _EPS
    if not np.any(ok):
        return crossing
    directions = near_deltas[ok] / norms[ok, None]
    alignment = dot(directions, crossing.direction)
    directions = directions * np.where(alignment >= 0, 1.0, -1.0)[:, None]
    mean = directions.mean(axis=0)
    length = norm(mean)
    if length < _EPS:
        return crossing
    return Crossing(crossing.object_id, crossing.point, mean / length)
