"""Uniform grid index.

Used by the Layered baseline [Zhang & You] -- which "segments the
spatial data into a grid and prefetches all surrounding grid cells" --
and by Hilbert-Prefetch [Park & Kim], which orders the same cells by
Hilbert value.  Each non-empty grid cell maps to one or more pages
(cells holding more than a page's worth of objects are split).

Page bounds live in packed ``(n, 3)`` corner arrays, so both the single
and the batched region probes are pure broadcast comparisons with no
per-page Python work.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB
from repro.geometry.grid import UniformGrid
from repro.index.base import PAGE_FANOUT, SpatialIndex, region_corners
from repro.storage.page import PageTable

__all__ = ["GridIndex"]


class GridIndex(SpatialIndex):
    """Grid-bucketed pages with cell-id lookups for the baselines."""

    def __init__(
        self,
        dataset: Dataset,
        fanout: int = PAGE_FANOUT,
        cells_per_axis: int | None = None,
    ) -> None:
        self.fanout = fanout
        self._requested_cells_per_axis = cells_per_axis
        super().__init__(dataset)

    def _build(self) -> PageTable:
        dataset = self.dataset
        bounds = dataset.bounds.inflate(1e-6)
        if self._requested_cells_per_axis is None:
            # Aim for cells holding roughly one page worth of objects.
            n_cells_target = max(1, dataset.n_objects // self.fanout)
            grid = UniformGrid.with_cell_count(bounds, n_cells_target)
        else:
            k = self._requested_cells_per_axis
            shape = (k, k, 1) if dataset.dims == 2 else (k, k, k)
            grid = UniformGrid(bounds, shape)
        self.grid = grid

        cell_coords = grid.cells_of_points(dataset.centroids)
        flat = grid.flat_ids(cell_coords)
        order = np.argsort(flat, kind="stable")
        sorted_flat = flat[order]

        # Runs of equal cell ids in the sorted order are the occupied
        # cells; each run is cut into fanout-sized page chunks.
        if len(sorted_flat):
            run_starts = np.flatnonzero(
                np.concatenate([[True], sorted_flat[1:] != sorted_flat[:-1]])
            )
        else:
            run_starts = np.empty(0, dtype=np.int64)
        run_ends = np.append(run_starts[1:], len(sorted_flat))

        pages: list[np.ndarray] = []
        self._pages_of_cell: dict[int, list[int]] = {}
        cell_of_page: list[int] = []
        for start, end in zip(run_starts, run_ends):
            cell_id = int(sorted_flat[start])
            members = order[start:end]
            for chunk_start in range(0, len(members), self.fanout):
                chunk = members[chunk_start : chunk_start + self.fanout]
                self._pages_of_cell.setdefault(cell_id, []).append(len(pages))
                cell_of_page.append(cell_id)
                pages.append(np.asarray(chunk, dtype=np.int64))
        self._cell_of_page = cell_of_page

        if pages:
            concat = np.concatenate(pages)
            offsets = np.concatenate(
                [[0], np.cumsum([len(p) for p in pages])[:-1]]
            ).astype(np.int64)
            self._page_lo = np.minimum.reduceat(dataset.obj_lo[concat], offsets, axis=0)
            self._page_hi = np.maximum.reduceat(dataset.obj_hi[concat], offsets, axis=0)
        else:
            self._page_lo = np.empty((0, 3))
            self._page_hi = np.empty((0, 3))
        return PageTable(pages)

    # -- SpatialIndex API ------------------------------------------------------

    def pages_for_region(self, region: AABB) -> np.ndarray:
        hits = np.all((self._page_lo <= region.hi) & (self._page_hi >= region.lo), axis=1)
        return np.flatnonzero(hits).astype(np.int64)

    def pages_for_regions(self, regions) -> list[np.ndarray]:
        if not len(regions):
            return []
        return self._pages_for_boxes(*region_corners(regions))

    def _pages_for_boxes(self, qlo: np.ndarray, qhi: np.ndarray) -> list[np.ndarray]:
        """All-pairs broadcast test, chunked to bound temporary memory."""
        n_regions = len(qlo)
        if n_regions == 0:
            return []
        if not len(self._page_lo):
            return [np.empty(0, dtype=np.int64)] * n_regions
        out: list[np.ndarray] = []
        # ~32 MB of boolean temporaries per chunk at 3 bytes/page/region.
        chunk = max(1, int(4_000_000 // max(1, len(self._page_lo))))
        for start in range(0, n_regions, chunk):
            lo = qlo[start : start + chunk]
            hi = qhi[start : start + chunk]
            hits = np.all(
                (self._page_lo[None, :, :] <= hi[:, None, :])
                & (self._page_hi[None, :, :] >= lo[:, None, :]),
                axis=2,
            )
            rows, cols = np.nonzero(hits)
            cuts = np.searchsorted(rows, np.arange(len(lo) + 1))
            out.extend(cols[a:b].astype(np.int64) for a, b in zip(cuts[:-1], cuts[1:]))
        return out

    def page_bounds(self, page_id: int) -> AABB:
        return AABB(self._page_lo[page_id], self._page_hi[page_id])

    # -- cell-oriented API used by the baselines -----------------------------------

    def pages_of_cell(self, cell_coords: tuple[int, int, int]) -> list[int]:
        """Pages storing the objects of one grid cell (possibly empty)."""
        return list(self._pages_of_cell.get(self.grid.flat_id(cell_coords), []))

    def cell_of_page(self, page_id: int) -> tuple[int, int, int]:
        return self.grid.unflatten(self._cell_of_page[page_id])

    def occupied_cells(self) -> list[int]:
        """Flat ids of cells containing at least one object."""
        return sorted(self._pages_of_cell.keys())
