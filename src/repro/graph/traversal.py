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
from repro.geometry.primitives import clip_segment_to_aabb, segments_clip_intervals
from repro.util import row_norms as _row_norms
from repro.graph.spatial_graph import SpatialGraph

__all__ = [
    "Crossing",
    "component_crossings",
    "region_crossings",
    "region_crossings_grouped",
    "region_crossings_reference",
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


def _object_crossings(dataset: Dataset, object_id: int, region: AABB) -> list[Crossing]:
    """Crossings contributed by one object's representative segment."""
    a = dataset.p0[object_id]
    b = dataset.p1[object_id]
    clipped = clip_segment_to_aabb(a, b, region)
    if clipped is None:
        # The object's box intersects the region but its segment does
        # not (thick object near a corner): treat as no crossing.
        return []
    inside_a, inside_b = clipped
    direction = b - a
    norm = np.linalg.norm(direction)
    if norm < _EPS:
        return []
    direction = direction / norm

    crossings = []
    a_clipped = bool(np.linalg.norm(inside_a - a) > _EPS)
    b_clipped = bool(np.linalg.norm(inside_b - b) > _EPS)
    if a_clipped:
        # The segment enters the region at inside_a; travelling from the
        # region outward through that point means going against the
        # segment direction.
        crossings.append(Crossing(int(object_id), inside_a.copy(), -direction))
    if b_clipped:
        crossings.append(Crossing(int(object_id), inside_b.copy(), direction.copy()))
    return crossings


def _crossing_arrays(dataset: Dataset, object_ids: np.ndarray, region: AABB):
    """Vectorized clip of every object's segment against the region.

    Returns ``(entry_mask, exit_mask, entry_points, exit_points,
    directions)`` over the input objects.  The arithmetic mirrors the
    scalar :func:`_object_crossings` path operation for operation
    (Liang-Barsky slab clip, then endpoint-displacement tests), so the
    resulting points and directions are bit-identical to the reference.
    """
    a = dataset.p0[object_ids]
    b = dataset.p1[object_ids]
    delta = b - a
    ok, t0, t1 = segments_clip_intervals(a, b, region)

    norms = _row_norms(delta)
    ok &= norms >= _EPS
    safe_norms = np.where(norms < _EPS, 1.0, norms)
    directions = delta / safe_norms[:, None]

    inside_a = a + t0[:, None] * delta
    inside_b = a + t1[:, None] * delta
    entry_mask = ok & (_row_norms(inside_a - a) > _EPS)
    exit_mask = ok & (_row_norms(inside_b - b) > _EPS)
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
    all_ids = (
        np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
        if sum(sizes)
        else np.empty(0, dtype=np.int64)
    )
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


def region_crossings_reference(
    dataset: Dataset,
    object_ids,
    region: AABB,
) -> list[Crossing]:
    """Scalar per-object reference implementation of :func:`region_crossings`.

    Kept as the equivalence oracle: the vectorized path must match it
    bit for bit.
    """
    crossings: list[Crossing] = []
    for object_id in np.asarray(object_ids, dtype=np.int64):
        crossings.extend(_object_crossings(dataset, int(object_id), region))
    return crossings


def refine_crossing_direction(
    dataset: Dataset,
    component_ids: np.ndarray,
    crossing: Crossing,
    radius: float,
) -> Crossing:
    """Smooth a crossing's direction over the structure's trailing window.

    A single short segment is a noisy estimate of where the structure is
    heading; averaging the (sign-aligned) directions of the component's
    objects within ``radius`` of the crossing point gives the local
    trend of the fiber, which is what §4.4's linear extrapolation of the
    *graph* should follow.
    """
    component_ids = np.asarray(component_ids, dtype=np.int64)
    p0 = dataset.p0[component_ids]
    p1 = dataset.p1[component_ids]
    mid = (p0 + p1) / 2.0
    near = np.linalg.norm(mid - crossing.point, axis=1) <= radius
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
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        axis = vt[0]
        if float(axis @ crossing.direction) < 0:
            axis = -axis
        norm = np.linalg.norm(axis)
        if norm > _EPS:
            return Crossing(crossing.object_id, crossing.point, axis / norm)

    # Too few neighbors for a stable axis: average the sign-aligned
    # object directions instead.
    deltas = p1[near] - p0[near]
    norms = np.linalg.norm(deltas, axis=1)
    ok = norms > _EPS
    if not np.any(ok):
        return crossing
    directions = deltas[ok] / norms[ok, None]
    alignment = directions @ crossing.direction
    directions = directions * np.where(alignment >= 0, 1.0, -1.0)[:, None]
    mean = directions.mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm < _EPS:
        return crossing
    return Crossing(crossing.object_id, crossing.point, mean / norm)


def component_crossings(
    dataset: Dataset,
    graph: SpatialGraph,
    region: AABB,
) -> dict[int, list[Crossing]]:
    """Boundary crossings grouped by connected component.

    Returns ``{component_index: crossings}`` where component indices
    refer to :meth:`SpatialGraph.connected_components` order (largest
    component first).  Components with no crossing (structures entirely
    inside the query) are included with an empty list, because they are
    still structures the user *might* be following into the next query
    via a part outside the current result.
    """
    groups = [
        np.fromiter(component, dtype=np.int64)
        for component in graph.connected_components()
    ]
    grouped = region_crossings_grouped(dataset, groups, region)
    return dict(enumerate(grouped))
