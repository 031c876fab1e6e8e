"""The one-node-at-a-time R-tree walk, over the packed levels.

The packed R-tree answers probes with level-synchronous array passes;
:func:`pages_for_region_scalar` is the original traversal (a Python
stack, tiny ``np.any`` / ``np.all`` tests per node) over the *same*
levels, and the two index classes are forced onto it and onto one probe
per region, so whole simulations can be compared bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.geometry import AABB
from repro.index import FlatIndex, SpatialIndex, STRTree


def page_bounds(index: STRTree, page_id: int) -> AABB:
    """The box of one leaf page, as the packed leaf level stores it."""
    return AABB(index._leaf_lo[page_id], index._leaf_hi[page_id])


def pages_for_regions_loop(index: SpatialIndex, regions) -> list[np.ndarray]:
    """One ``pages_for_region`` probe per box (packed ``(n, 2, 3)`` corners too)."""
    if isinstance(regions, np.ndarray):
        regions = [AABB(lo, hi) for lo, hi in regions]
    return [index.pages_for_region(region) for region in regions]


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
        return pages_for_regions_loop(self, regions)


class ScalarFlatIndex(FlatIndex):
    """FLAT index forced onto the scalar traversal and per-region probes.

    The scalar oracle for SCOUT-OPT cells, whose type check asks for a
    :class:`FlatIndex`.
    """

    def pages_for_region(self, region: AABB) -> np.ndarray:
        return pages_for_region_scalar(self, region)

    def pages_for_regions(self, regions) -> list[np.ndarray]:
        return pages_for_regions_loop(self, regions)
