"""Per-object region crossings, per-exit refinement and the O(n²) proximity graph.

``repro.graph.traversal.region_crossings`` clips every object in one
array pass and must return :func:`region_crossings_reference`'s
crossings bit for bit, in order; ``repro.graph.traversal.refine_exits``
gathers a component once per track and must return what
:func:`refine_crossing_direction` returns for each exit.
:func:`build_graph_brute_force` is what grid hashing (paper §4.2) is
compared against.
"""

from __future__ import annotations

import time

import numpy as np

from repro.datagen.dataset import Dataset
from repro.geometry import AABB
from repro.graph import GraphBuildReport, SpatialGraph
from repro.graph.traversal import Crossing
from repro.util import dot, norm
from tests.oracles.geometry import clip_segment_to_aabb, segment_segment_distance

_EPS = 1e-9  # repro.graph.traversal's


def edges_of(graph: SpatialGraph) -> set[tuple[int, int]]:
    """Every undirected edge of a graph, as ``(u, v)`` with ``u < v``."""
    return {(u, v) for u, neighbors in graph._adjacency.items() for v in neighbors if u < v}


def object_crossings(dataset: Dataset, object_id: int, region: AABB) -> list[Crossing]:
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
    length = norm(direction)
    if length < _EPS:
        return []
    direction = direction / length

    crossings = []
    a_clipped = norm(inside_a - a) > _EPS
    b_clipped = norm(inside_b - b) > _EPS
    if a_clipped:
        # The segment enters the region at inside_a; travelling from the
        # region outward through that point means going against the
        # segment direction.
        crossings.append(Crossing(int(object_id), inside_a.copy(), -direction))
    if b_clipped:
        crossings.append(Crossing(int(object_id), inside_b.copy(), direction.copy()))
    return crossings


def region_crossings_reference(dataset: Dataset, object_ids, region: AABB) -> list[Crossing]:
    """:func:`repro.graph.traversal.region_crossings`, one object at a time."""
    crossings: list[Crossing] = []
    for object_id in np.asarray(object_ids, dtype=np.int64):
        crossings.extend(object_crossings(dataset, int(object_id), region))
    return crossings


def refine_crossing_direction(
    dataset: Dataset,
    component_ids: np.ndarray,
    crossing: Crossing,
    radius: float,
) -> Crossing:
    """One exit smoothed over the component's objects near it, gathered per exit."""
    component_ids = np.asarray(component_ids, dtype=np.int64)
    p0 = dataset.p0[component_ids]
    p1 = dataset.p1[component_ids]
    mid = (p0 + p1) / 2.0
    near = norm(mid - crossing.point) <= radius
    n_near = int(near.sum())
    if n_near == 0:
        return crossing

    if n_near >= 3:
        # Principal axis of the nearby object midpoints.
        points = mid[near]
        centered = points - points.mean(axis=0)
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        axis = vt[0]
        if dot(axis, crossing.direction) < 0:
            axis = -axis
        length = norm(axis)
        if length > _EPS:
            return Crossing(crossing.object_id, crossing.point, axis / length)

    # Too few neighbors for a stable axis: average the sign-aligned
    # object directions instead.
    deltas = p1[near] - p0[near]
    norms = norm(deltas)
    ok = norms > _EPS
    if not np.any(ok):
        return crossing
    directions = deltas[ok] / norms[ok, None]
    alignment = dot(directions, crossing.direction)
    directions = directions * np.where(alignment >= 0, 1.0, -1.0)[:, None]
    mean = directions.mean(axis=0)
    length = norm(mean)
    if length < _EPS:
        return crossing
    return Crossing(crossing.object_id, crossing.point, mean / length)


def build_graph_brute_force(
    dataset: Dataset,
    object_ids: np.ndarray,
    distance_threshold: float,
) -> GraphBuildReport:
    """O(n²) reference builder: connect segments within a distance."""
    started = time.perf_counter()
    object_ids = np.asarray(object_ids, dtype=np.int64)
    graph = SpatialGraph(object_ids)
    n = len(object_ids)
    work = n * (n - 1) // 2
    for i in range(n):
        oi = int(object_ids[i])
        for j in range(i + 1, n):
            oj = int(object_ids[j])
            distance = segment_segment_distance(
                dataset.p0[oi], dataset.p1[oi], dataset.p0[oj], dataset.p1[oj]
            )
            if distance <= distance_threshold:
                graph.add_edge(oi, oj)
    return GraphBuildReport(
        graph=graph,
        work_units=work,
        wall_seconds=time.perf_counter() - started,
        resolution=0,
    )
