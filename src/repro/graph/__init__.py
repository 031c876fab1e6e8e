"""Approximate proximity graphs over query results (paper §4.2).

SCOUT summarizes the spatial objects of each range-query result as a
graph: objects are vertices and spatially close objects are connected.
Construction uses *grid hashing* -- map each object's simplified
geometry into grid cells and connect co-located objects -- which trades
a controllable amount of precision for near-linear build time.  Meshes
with explicit adjacency skip hashing entirely.
"""

from repro.graph.spatial_graph import SpatialGraph
from repro.graph.builder import (
    GraphBuildReport,
    build_graph,
    build_graph_explicit,
    build_graph_grid_hash,
)
from repro.graph.traversal import Crossing, region_crossings

__all__ = [
    "Crossing",
    "GraphBuildReport",
    "SpatialGraph",
    "build_graph",
    "build_graph_explicit",
    "build_graph_grid_hash",
    "region_crossings",
]
