"""Scalar (pre-vectorization) reference index paths.

The packed R-tree answers region probes with level-synchronous array
passes; this module preserves the original one-node-at-a-time traversal
-- a Python stack with a pair of tiny ``np.any``/``np.all`` reductions
per node -- over the *same* packed levels.  It exists as the
equivalence oracle: the test suite proves the vectorized traversal
returns bit-identical page sets, and that full simulations over a
scalar-path index produce bit-identical metrics and records
(``tests/test_vectorized_equivalence.py``).

Nothing in the production system calls these classes
(``tests/test_layout.py`` checks that).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.aabb import AABB
from repro.index.base import SpatialIndex
from repro.index.flat import FlatIndex
from repro.index.rtree import STRTree

__all__ = ["ScalarFlatIndex", "ScalarSTRTree", "pages_for_region_scalar"]


def pages_for_region_scalar(tree: STRTree, region: AABB) -> np.ndarray:
    """Reference depth-first traversal, one node (and box test) at a time."""
    if not tree._levels:
        if len(tree._leaf_lo) and not (
            np.any(tree._leaf_lo[0] > region.hi) or np.any(tree._leaf_hi[0] < region.lo)
        ):
            return np.array([0], dtype=np.int64)
        return np.empty(0, dtype=np.int64)

    last_level = len(tree._levels) - 1
    result: list[int] = []
    stack: list[tuple[int, int]] = [(0, 0)]  # (level index, node id)
    while stack:
        level_index, node = stack.pop()
        level = tree._levels[level_index]
        if np.any(level.lo[node] > region.hi) or np.any(level.hi[node] < region.lo):
            continue
        children = level.children[level.child_start[node] : level.child_start[node + 1]]
        if level_index == last_level:
            for leaf in children:
                if np.all(tree._leaf_lo[leaf] <= region.hi) and np.all(
                    tree._leaf_hi[leaf] >= region.lo
                ):
                    result.append(int(leaf))
        else:
            stack.extend((level_index + 1, int(child)) for child in children)
    return np.array(sorted(result), dtype=np.int64)


class ScalarSTRTree(STRTree):
    """STR R-tree forced onto the scalar traversal and per-region probes."""

    def pages_for_region(self, region: AABB) -> np.ndarray:
        return pages_for_region_scalar(self, region)

    def pages_for_regions(self, regions) -> list[np.ndarray]:
        return SpatialIndex.pages_for_regions(self, regions)


class ScalarFlatIndex(FlatIndex):
    """FLAT index forced onto the scalar traversal and per-region probes.

    Adjacency preprocessing runs through the (overridden) per-region
    loop as well, so index *build* timings also reflect the pre-change
    baseline.
    """

    def pages_for_region(self, region: AABB) -> np.ndarray:
        return pages_for_region_scalar(self, region)

    def pages_for_regions(self, regions) -> list[np.ndarray]:
        return SpatialIndex.pages_for_regions(self, regions)
