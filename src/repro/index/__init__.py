"""Spatial indexes.

SCOUT is index-agnostic (§4: "Any spatial index can be used as long as
it can execute spatial range queries").  The baseline configuration in
the paper couples SCOUT with an STR bulk-loaded R-tree; SCOUT-OPT is
paired with the authors' FLAT index, which here is the same STR page
layout under its own name (its §6 optimisations are a cost rule and a
batched probe walk, not index structures).  Both run over the same
simulated page layer.
"""

from repro.index.base import QueryResult, SpatialIndex
from repro.index.rtree import STRTree
from repro.index.flat import FlatIndex

__all__ = [
    "FlatIndex",
    "QueryResult",
    "STRTree",
    "SpatialIndex",
]
