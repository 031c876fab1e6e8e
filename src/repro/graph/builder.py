"""Proximity-graph construction (paper §4.2).

Three builders, matching the paper:

- :func:`build_graph_grid_hash` -- the production path: partition the
  query region into equi-volume grid cells, map each object's simplified
  geometry (a line segment for cylinders, both paper §7.1 and here) into
  the cells it crosses, and connect objects sharing a cell.  Resolution
  is the precision knob studied in Fig 13e.
- :func:`build_graph_brute_force` -- the O(n²) reference the paper
  compares grid hashing against; connects objects whose segments pass
  within a distance threshold.
- :func:`build_graph_explicit` -- for datasets with an underlying graph
  (polygon meshes): restrict the dataset's explicit adjacency to the
  result set, no geometry needed.

:func:`build_graph` picks the right builder for a dataset.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB
from repro.geometry.grid import UniformGrid
from repro.geometry.primitives import segment_segment_distance
from repro.graph.spatial_graph import SpatialGraph

__all__ = [
    "GraphBuildReport",
    "build_graph",
    "build_graph_brute_force",
    "build_graph_explicit",
    "build_graph_grid_hash",
    "DEFAULT_GRID_RESOLUTION",
]

#: Default number of grid cells per query region.  The paper's Fig 13e
#: shows accuracy is stable from 32768 down to 512 cells; the default
#: sits in that plateau ("our strategy is to use a fine resolution").
DEFAULT_GRID_RESOLUTION = 4096


@dataclass
class GraphBuildReport:
    """The built graph plus cost accounting for the simulator.

    ``work_units`` counts cell insertions plus pairwise connections --
    the quantity the simulated CPU-cost model converts into seconds --
    and ``wall_seconds`` is the measured Python-side build time (used by
    the Fig 15 bench).
    """

    graph: SpatialGraph
    work_units: int
    wall_seconds: float
    resolution: int


def _sample_segment_cells(
    grid: UniformGrid,
    object_ids: np.ndarray,
    p0: np.ndarray,
    p1: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (object, cell) pairs of the objects' segments.

    Each segment is sampled at evenly spaced points (spacing 0.45 of the
    smallest cell edge, endpoints included) and every sample is hashed
    to its cell.  A segment gets at most 64 samples, so one that is long
    against a fine grid can step over cells: the rasterization is an
    approximation, with the exact DDA
    (:meth:`UniformGrid.cells_of_segment`) as the test oracle.  There is
    one array pass per distinct sample count (segments of a result are
    of similar length, so usually one or two), none per object.

    Returns ``(owners, cells)``: parallel arrays of object id and flat
    cell id, deduplicated and sorted by ``(owner, cell)`` -- the *pair
    order* that fixes the edge insertion order downstream.
    """
    lengths = np.linalg.norm(p1 - p0, axis=1)
    min_cell_edge = float(grid.cell_extent.min())
    spacing = max(min_cell_edge * 0.45, 1e-9)
    n_samples = np.minimum(np.ceil(lengths / spacing).astype(int) + 1, 64)

    point_chunks = []
    owner_chunks = []
    for count in np.unique(n_samples):
        members = np.flatnonzero(n_samples == count)
        ts = np.linspace(0.0, 1.0, int(count))
        # (m, count, 3) sample points for all segments needing `count` samples.
        pts = p0[members][:, None, :] + ts[None, :, None] * (p1[members] - p0[members])[:, None, :]
        point_chunks.append(pts.reshape(-1, 3))
        owner_chunks.append(np.repeat(object_ids[members], int(count)))
    points = np.concatenate(point_chunks)
    owners = np.concatenate(owner_chunks)

    flat = grid.flat_ids(grid.cells_of_points(points))
    n_cells = np.int64(grid.n_cells)
    pairs = np.unique(owners * n_cells + flat)
    return pairs // n_cells, pairs % n_cells


def build_graph_grid_hash(
    dataset: Dataset,
    object_ids: np.ndarray,
    region: AABB,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> GraphBuildReport:
    """Grid-hashing construction over the result objects of one query."""
    started = time.perf_counter()
    object_ids = np.asarray(object_ids, dtype=np.int64)
    graph = SpatialGraph(object_ids)
    work = 0

    if len(object_ids):
        grid = UniformGrid.with_cell_count(region, max(1, int(resolution)))
        owners, cells = _sample_segment_cells(
            grid, object_ids, dataset.p0[object_ids], dataset.p1[object_ids]
        )
        # One stable sort groups the pairs by cell and keeps each cell's
        # owners in pair order.  Most cells hold a single object; only
        # the shared ones connect anything.
        by_cell = np.argsort(cells, kind="stable")
        grouped = cells[by_cell]
        starts = np.flatnonzero(np.concatenate(([True], grouped[1:] != grouped[:-1])))
        sizes = np.diff(starts, append=len(by_cell))
        # Cell insertions plus pairwise connections; the cost of coarse
        # resolutions (big cells) is quadratic, exactly the §4.2
        # trade-off.
        work = len(by_cell) + int((sizes * (sizes - 1) // 2).sum())
        shared = np.flatnonzero(sizes > 1)
        # Shared cells in order of first appearance in pair order, so
        # edges are inserted in the order every adjacency set -- and
        # with it DFS, component and exit order -- depends on.
        shared = shared[np.argsort(by_cell[starts[shared]])]
        members = owners[by_cell].tolist()
        for start, size in zip(starts[shared].tolist(), sizes[shared].tolist()):
            for u, v in combinations(members[start : start + size], 2):
                graph.add_edge(u, v)

    return GraphBuildReport(
        graph=graph,
        work_units=work,
        wall_seconds=time.perf_counter() - started,
        resolution=int(resolution),
    )


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


def build_graph_explicit(dataset: Dataset, object_ids: np.ndarray) -> GraphBuildReport:
    """Restrict the dataset's explicit adjacency to the result objects."""
    if dataset.explicit_edges is None:
        raise ValueError(f"dataset {dataset.name!r} has no explicit adjacency")
    started = time.perf_counter()
    object_ids = np.asarray(object_ids, dtype=np.int64)
    graph = SpatialGraph(object_ids)
    members = set(object_ids.tolist())
    edges = dataset.explicit_edges
    # Only scan edges touching the result set; a mask keeps it vectorized.
    mask = np.isin(edges[:, 0], object_ids) & np.isin(edges[:, 1], object_ids)
    selected = edges[mask]
    for u, v in selected:
        if int(u) in members and int(v) in members:
            graph.add_edge(int(u), int(v))
    return GraphBuildReport(
        graph=graph,
        work_units=int(mask.sum()) + len(object_ids),
        wall_seconds=time.perf_counter() - started,
        resolution=0,
    )


def build_graph(
    dataset: Dataset,
    object_ids: np.ndarray,
    region: AABB,
    resolution: int = DEFAULT_GRID_RESOLUTION,
) -> GraphBuildReport:
    """Build the result graph the way SCOUT would for this dataset.

    Datasets with explicit adjacency (meshes) use it directly (§4.2);
    everything else goes through grid hashing.
    """
    if dataset.explicit_edges is not None:
        return build_graph_explicit(dataset, object_ids)
    return build_graph_grid_hash(dataset, object_ids, region, resolution)
