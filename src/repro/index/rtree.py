"""STR bulk-loaded R-tree (Leutenegger et al., ICDE 1997).

The paper's baseline index (§7.1): 4 KB pages, 87 objects per page,
bulk-loaded at 100 % fill with Sort-Tile-Recursive packing.  STR sorts
object centers by x, tiles into vertical slabs, sorts each slab by y,
tiles again, then sorts by z and cuts leaf pages -- producing leaves
that are spatially compact and, crucially for the disk model, laid out
on disk in a spatially coherent page order.

The tree is stored packed, structure-of-arrays: every level holds its
node boxes as contiguous ``(n, 3)`` corner arrays plus CSR child
offsets, and probes run level-synchronously -- the whole frontier of
surviving ``(node, region)`` pairs is intersected against its probe
boxes in one vectorized operation per level instead of one Python stack
pop (and a pair of tiny ``np.any``/``np.all`` reductions) per node.
There is one descent: dozens of small prefetch regions cost a handful
of array passes total, and a single-region probe is a batch of one.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB, boxes_overlap
from repro.index.base import PAGE_FANOUT, SpatialIndex, region_corners
from repro.storage.page import PageTable
from repro.util import csr_expand

__all__ = ["PROBE_BLOCK", "STRTree", "TreeLevel", "str_partition"]

#: Regions one batched descent carries.  Its pair frontier gathers four
#: ``(pairs, 3)`` corner arrays per level, so a pass over more regions
#: runs block by block and its transient memory stays that of one block.
PROBE_BLOCK = 64


def str_partition(centers: np.ndarray, fanout: int) -> list[np.ndarray]:
    """Sort-Tile-Recursive partition of points into runs of <= ``fanout``.

    Returns index arrays (into ``centers``) for each tile.  Operates on
    3D centers; 2D data simply has a constant third coordinate.
    """
    n = len(centers)
    if n == 0:
        return []
    ids = np.arange(n)
    n_leaves = math.ceil(n / fanout)
    s = math.ceil(n_leaves ** (1.0 / 3.0))

    tiles: list[np.ndarray] = []
    by_x = ids[np.argsort(centers[ids, 0], kind="stable")]
    slab_size_x = math.ceil(n / s)
    for x_start in range(0, n, slab_size_x):
        slab_x = by_x[x_start : x_start + slab_size_x]
        by_y = slab_x[np.argsort(centers[slab_x, 1], kind="stable")]
        slab_size_y = math.ceil(len(slab_x) / s)
        for y_start in range(0, len(slab_x), slab_size_y):
            slab_y = by_y[y_start : y_start + slab_size_y]
            by_z = slab_y[np.argsort(centers[slab_y, 2], kind="stable")]
            for z_start in range(0, len(slab_y), fanout):
                tiles.append(by_z[z_start : z_start + fanout])
    return tiles


class TreeLevel:
    """One packed tree level: node boxes plus CSR links to the level below.

    ``children`` holds node ids of the next level down (leaf page ids
    for the lowest internal level); node ``i``'s children are
    ``children[child_start[i]:child_start[i + 1]]``.
    """

    __slots__ = ("lo", "hi", "child_start", "children")

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        child_start: np.ndarray,
        children: np.ndarray,
    ) -> None:
        self.lo = lo
        self.hi = hi
        self.child_start = child_start
        self.children = children


def _group_bounds(
    groups: list[np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Packed (lo, hi, child_start, children) of box groups, via reduceat."""
    children = np.concatenate(groups).astype(np.int64, copy=False)
    counts = np.fromiter((len(g) for g in groups), dtype=np.int64, count=len(groups))
    child_start = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    group_lo = np.minimum.reduceat(lo[children], child_start[:-1], axis=0)
    group_hi = np.maximum.reduceat(hi[children], child_start[:-1], axis=0)
    return group_lo, group_hi, child_start, children


class STRTree(SpatialIndex):
    """STR bulk-loaded R-tree; leaves are disk pages."""

    def __init__(self, dataset: Dataset, fanout: int = PAGE_FANOUT) -> None:
        # Below 4, str_partition cuts some level sizes (3 or 4 nodes)
        # into as many tiles as nodes, and the build never ends.
        if fanout < 4:
            raise ValueError("fanout must be >= 4")
        self.fanout = fanout
        super().__init__(dataset)

    def _build(self) -> PageTable:
        dataset = self.dataset
        # A dataset holds at least one object, so there is at least one tile.
        tiles = str_partition(dataset.centroids, self.fanout)
        self._leaf_lo, self._leaf_hi, _, _ = _group_bounds(tiles, dataset.obj_lo, dataset.obj_hi)

        # Build internal levels bottom-up by re-applying STR to box
        # centers, then store them root-first for top-down traversal.
        levels: list[TreeLevel] = []
        level_lo, level_hi = self._leaf_lo, self._leaf_hi
        while len(level_lo) > 1:
            centers = (level_lo + level_hi) / 2.0
            groups = str_partition(centers, self.fanout)
            lo, hi, child_start, children = _group_bounds(groups, level_lo, level_hi)
            levels.append(TreeLevel(lo, hi, child_start, children))
            level_lo, level_hi = lo, hi
        levels.reverse()
        self._levels = levels
        return PageTable(tiles)

    # -- queries --------------------------------------------------------------

    def pages_for_region(self, region: AABB) -> np.ndarray:
        return self._descend(region.lo[None], region.hi[None])[0]

    def pages_for_regions(self, regions) -> list[np.ndarray]:
        if not len(regions):
            return []
        return self._pages_for_boxes(*region_corners(regions))

    def _pages_for_boxes(self, qlo: np.ndarray, qhi: np.ndarray) -> list[np.ndarray]:
        """Batched traversal over ``(n, 3)`` probe-corner arrays, one
        :data:`PROBE_BLOCK` of regions at a time.

        The frontier is a set of (node, region) pairs; every level
        prunes and expands all pairs in one vectorized step.  Pairs stay
        grouped by region (expansion preserves order), so one in-place
        sort of ``region * n_pages + page`` orders every region's pages
        without moving a pair out of its group, and the per-region
        split is a pair of ``searchsorted`` cuts.  Each region's pages
        are a read-only slice of its block's one sorted array.
        """
        if len(qlo) <= PROBE_BLOCK:
            return self._descend(qlo, qhi)
        pages: list[np.ndarray] = []
        for start in range(0, len(qlo), PROBE_BLOCK):
            end = start + PROBE_BLOCK
            pages += self._descend(qlo[start:end], qhi[start:end])
        return pages

    def _descend(self, qlo: np.ndarray, qhi: np.ndarray) -> list[np.ndarray]:
        """One block of :meth:`_pages_for_boxes`."""
        n_regions = len(qlo)
        empty = np.empty(0, dtype=np.int64)
        if not self._levels:
            hits = boxes_overlap(qlo, qhi, self._leaf_lo[0], self._leaf_hi[0])
            one = np.array([0], dtype=np.int64)
            return [one.copy() if h else empty for h in hits]

        # Every node lies inside the root's box, so the root needs no
        # test of its own: the descent starts at its children.
        top = self._levels[0].children
        node = np.tile(top, n_regions)
        region = np.repeat(np.arange(n_regions, dtype=np.int64), len(top))
        for level in self._levels[1:]:
            hit = boxes_overlap(
                level.lo.take(node, axis=0),
                level.hi.take(node, axis=0),
                qlo.take(region, axis=0),
                qhi.take(region, axis=0),
            )
            node, region = node[hit], region[hit]
            if not len(node):
                return [empty] * n_regions
            starts = level.child_start[node]
            counts = level.child_start[node + 1] - starts
            node = level.children[csr_expand(starts, counts)]
            region = np.repeat(region, counts)

        hit = boxes_overlap(
            self._leaf_lo.take(node, axis=0),
            self._leaf_hi.take(node, axis=0),
            qlo.take(region, axis=0),
            qhi.take(region, axis=0),
        )
        node, region = node[hit], region[hit]
        offset = region * len(self._leaf_lo)
        pages = offset + node
        pages.sort()
        pages -= offset
        pages.flags.writeable = False
        cuts = np.searchsorted(region, np.arange(n_regions + 1)).tolist()
        return [pages[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    # -- introspection ----------------------------------------------------------
