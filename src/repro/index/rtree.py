"""STR bulk-loaded R-tree (Leutenegger et al., ICDE 1997).

The paper's baseline index (§7.1): 4 KB pages, 87 objects per page,
bulk-loaded at 100 % fill with Sort-Tile-Recursive packing.  STR sorts
object centers by x, tiles into vertical slabs, sorts each slab by y,
tiles again, then sorts by z and cuts leaf pages -- producing leaves
that are spatially compact and, crucially for the disk model, laid out
on disk in a spatially coherent page order.

The tree is stored packed, structure-of-arrays: every level holds its
node boxes as contiguous ``(n, 3)`` corner arrays plus CSR child
offsets, and queries run level-synchronously -- the whole frontier of
surviving nodes is intersected against the probe box in one vectorized
operation per level instead of one Python stack pop (and a pair of tiny
``np.any``/``np.all`` reductions) per node.  Batched probes share the
same machinery with a ``(node, region)`` pair frontier, so dozens of
small prefetch regions cost a handful of array passes total.
"""

from __future__ import annotations

import math

import numpy as np

from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB
from repro.index.base import PAGE_FANOUT, SpatialIndex, region_corners
from repro.storage.page import PageTable
from repro.util import csr_expand

__all__ = ["STRTree", "TreeLevel", "str_partition"]


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

    @property
    def n_nodes(self) -> int:
        return len(self.lo)


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
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self.fanout = fanout
        super().__init__(dataset)

    def _build(self) -> PageTable:
        dataset = self.dataset
        tiles = str_partition(dataset.centroids, self.fanout)

        if tiles:
            lo, hi, _, _ = _group_bounds(tiles, dataset.obj_lo, dataset.obj_hi)
            self._leaf_lo, self._leaf_hi = lo, hi
        else:
            self._leaf_lo = np.empty((0, 3))
            self._leaf_hi = np.empty((0, 3))

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
        qlo, qhi = region.lo, region.hi
        if not self._levels:
            # 0 or 1 leaves: no internal structure to traverse.
            if len(self._leaf_lo) and bool(
                np.all(self._leaf_lo[0] <= qhi) and np.all(self._leaf_hi[0] >= qlo)
            ):
                return np.array([0], dtype=np.int64)
            return np.empty(0, dtype=np.int64)

        # Every node lies inside the root's box, so the root needs no
        # test of its own: the descent starts at its children.
        frontier = self._levels[0].children
        for level in self._levels[1:]:
            hit = ((level.lo[frontier] <= qhi) & (level.hi[frontier] >= qlo)).all(axis=1)
            survivors = frontier[hit]
            if not len(survivors):
                return np.empty(0, dtype=np.int64)
            starts = level.child_start[survivors]
            counts = level.child_start[survivors + 1] - starts
            frontier = level.children[csr_expand(starts, counts)]

        hit = ((self._leaf_lo[frontier] <= qhi) & (self._leaf_hi[frontier] >= qlo)).all(axis=1)
        return np.sort(frontier[hit])

    def pages_for_regions(self, regions) -> list[np.ndarray]:
        if not len(regions):
            return []
        return self._pages_for_boxes(*region_corners(regions))

    def _pages_for_boxes(self, qlo: np.ndarray, qhi: np.ndarray) -> list[np.ndarray]:
        """Batched traversal over ``(n, 3)`` probe-corner arrays.

        The frontier is a set of (node, region) pairs; every level
        prunes and expands all pairs in one vectorized step.  Pairs stay
        grouped by region (expansion preserves order), so the final
        per-region split is a pair of ``searchsorted`` cuts.
        """
        n_regions = len(qlo)
        empty = np.empty(0, dtype=np.int64)
        if n_regions == 0:
            return []
        if not self._levels:
            if not len(self._leaf_lo):
                return [empty] * n_regions
            hits = np.all((qlo <= self._leaf_hi[0]) & (qhi >= self._leaf_lo[0]), axis=1)
            one = np.array([0], dtype=np.int64)
            return [one.copy() if h else empty for h in hits]

        # As in pages_for_region, the descent starts below the root.
        top = self._levels[0].children
        node = np.tile(top, n_regions)
        region = np.repeat(np.arange(n_regions, dtype=np.int64), len(top))
        for level in self._levels[1:]:
            hit = ((level.lo[node] <= qhi[region]) & (level.hi[node] >= qlo[region])).all(axis=1)
            node, region = node[hit], region[hit]
            if not len(node):
                return [empty] * n_regions
            starts = level.child_start[node]
            counts = level.child_start[node + 1] - starts
            node = level.children[csr_expand(starts, counts)]
            region = np.repeat(region, counts)

        hit = ((self._leaf_lo[node] <= qhi[region]) & (self._leaf_hi[node] >= qlo[region])).all(
            axis=1
        )
        node, region = node[hit], region[hit]
        cuts = np.searchsorted(region, np.arange(n_regions + 1))
        return [np.sort(node[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]

    def page_bounds(self, page_id: int) -> AABB:
        return AABB(self._leaf_lo[page_id], self._leaf_hi[page_id])

    # -- introspection ----------------------------------------------------------

    @property
    def height(self) -> int:
        """Number of levels above the leaves (0 for a single-leaf tree)."""
        return len(self._levels)

    def leaf_page_for_point(self, point: np.ndarray) -> int | None:
        """A leaf page whose box contains ``point`` (nearest box if none).

        Returns ``None`` for an index with no pages at all.
        """
        if not len(self._leaf_lo):
            return None
        point = np.asarray(point, dtype=np.float64)
        probe = AABB(point, point)
        pages = self.pages_for_region(probe)
        if len(pages):
            return int(pages[0])
        # Fall back to the leaf whose box is closest to the point.
        clamped = np.clip(point, self._leaf_lo, self._leaf_hi)
        distances = np.linalg.norm(clamped - point, axis=1)
        return int(np.argmin(distances))
