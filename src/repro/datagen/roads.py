"""Synthetic road network.

Stand-in for the North-America road network [Li et al.] of §8.4 (7.2M 2D
line segments, 531 MB): a jittered lattice of local roads with a few
long-range highways, embedded in the z=0 plane.  Roads exercise the
paper's non-scientific use case (mobile map prefetching) and the 2D code
paths (2D Hilbert values, planar queries).
"""

from __future__ import annotations

import numpy as np

from repro.datagen.dataset import Dataset, NavEdge, NavigationGraph, Polyline

__all__ = ["make_road_network"]

#: Lattice spacing between intersections.
ROAD_SPACING = 30.0

#: Fraction of lattice roads dropped.
DROP_PROBABILITY = 0.12

#: Diagonal highways crossing the map.
N_HIGHWAYS = 3

#: Segments per road between two lattice nodes.
SEGMENTS_PER_ROAD = 3


def make_road_network(grid_size: int = 18, seed: int = 0) -> Dataset:
    """Generate a planar road network.

    Nodes form a jittered ``grid_size x grid_size`` lattice; lattice
    neighbors are connected by gently-curved roads of
    :data:`SEGMENTS_PER_ROAD` segments each, with a fraction of roads
    dropped; :data:`N_HIGHWAYS` diagonal highways cross the map.  Each
    road (and each highway leg between lattice crossings) is one
    structure.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    rng = np.random.default_rng(seed)

    # Jittered lattice of intersections.
    jitter = ROAD_SPACING * 0.18
    nodes = np.zeros((grid_size * grid_size, 3))
    for i in range(grid_size):
        for j in range(grid_size):
            nodes[i * grid_size + j] = (
                i * ROAD_SPACING + rng.uniform(-jitter, jitter),
                j * ROAD_SPACING + rng.uniform(-jitter, jitter),
                0.0,
            )

    p0_list, p1_list = [], []
    structure_list, branch_list = [], []
    nav_edges: list[NavEdge] = []

    def add_road(u: int, v: int, road_id: int) -> None:
        """A gently-curved polyline road between two lattice nodes."""
        a, b = nodes[u], nodes[v]
        waypoints = [a]
        for k in range(1, SEGMENTS_PER_ROAD):
            t = k / SEGMENTS_PER_ROAD
            midpoint = a + t * (b - a)
            lateral = rng.uniform(-jitter, jitter, size=2)
            waypoints.append(midpoint + np.array([lateral[0], lateral[1], 0.0]))
        waypoints.append(b)
        waypoints = np.array(waypoints)
        for k in range(len(waypoints) - 1):
            p0_list.append(waypoints[k])
            p1_list.append(waypoints[k + 1])
            structure_list.append(road_id)
            branch_list.append(road_id)
        nav_edges.append(NavEdge(u, v, Polyline(waypoints)))

    road_id = 0
    for i in range(grid_size):
        for j in range(grid_size):
            here = i * grid_size + j
            if i + 1 < grid_size and rng.random() >= DROP_PROBABILITY:
                add_road(here, (i + 1) * grid_size + j, road_id)
                road_id += 1
            if j + 1 < grid_size and rng.random() >= DROP_PROBABILITY:
                add_road(here, i * grid_size + (j + 1), road_id)
                road_id += 1

    # Highways: diagonal chains of lattice nodes, connected leg by leg.
    for _ in range(N_HIGHWAYS):
        i = int(rng.integers(grid_size))
        j = int(rng.integers(grid_size))
        direction = (1, 1) if rng.random() < 0.5 else (1, -1)
        while 0 <= i + direction[0] < grid_size and 0 <= j + direction[1] < grid_size:
            u = i * grid_size + j
            i += direction[0]
            j += direction[1]
            v = i * grid_size + j
            add_road(u, v, road_id)
            road_id += 1

    n = len(p0_list)
    return Dataset(
        name="road-network",
        p0=np.array(p0_list),
        p1=np.array(p1_list),
        radius=np.zeros(n),
        structure_id=np.array(structure_list, dtype=np.int64),
        branch_id=np.array(branch_list, dtype=np.int64),
        nav=NavigationGraph(nodes, nav_edges),
        dims=2,
    )
