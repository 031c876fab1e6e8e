"""Hilbert-Prefetch baseline (Park & Kim [22], paper §2.1).

A static method: segment the dataset into an application-level grid,
assign each cell a Hilbert value, and prefetch the cells whose Hilbert
values are closest to the current location's value.  Because the
Hilbert curve preserves locality, cells with nearby values are nearby in
space -- but the method is oblivious to the structure being followed,
which is why the paper reports it between the extrapolation baselines
and SCOUT.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ObservedQuery, Prefetcher, PrefetchTarget
from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB
from repro.geometry.grid import UniformGrid
from repro.geometry.hilbert import hilbert_encode

__all__ = ["HilbertPrefetcher"]

#: Application-level grid cells per axis (rounded up to a power of two).
CELLS_PER_AXIS = 16

#: Grid cells prefetched per plan, nearest Hilbert values first.
N_PREFETCH_CELLS = 8


class HilbertPrefetcher(Prefetcher):
    """Prefetch grid cells by Hilbert-value proximity to the current cell."""

    name = "hilbert"

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self._bits = max(1, int(np.ceil(np.log2(CELLS_PER_AXIS))))
        k = 1 << self._bits
        bounds = dataset.bounds.inflate(1e-6)
        shape = (k, k, 1) if dataset.dims == 2 else (k, k, k)
        self.grid = UniformGrid(bounds, shape)
        self._dims = dataset.dims
        self._last_center: np.ndarray | None = None

    def begin_sequence(self) -> None:
        self._last_center = None

    def observe(self, observed: ObservedQuery) -> None:
        self._last_center = observed.center

    def _cell_value(self, coords: tuple[int, int, int]) -> int:
        if self._dims == 2:
            return hilbert_encode(coords[:2], self._bits)
        return hilbert_encode(coords, self._bits)

    def _coords_from_value(self, value: int) -> tuple[int, int, int] | None:
        from repro.geometry.hilbert import hilbert_decode

        dims = self._dims
        max_value = 1 << (dims * self._bits)
        if not 0 <= value < max_value:
            return None
        decoded = hilbert_decode(value, dims, self._bits)
        if dims == 2:
            return (decoded[0], decoded[1], 0)
        return decoded  # type: ignore[return-value]

    def plan(self) -> list[PrefetchTarget]:
        if self._last_center is None:
            return []
        current = self.grid.cell_of_point(self._last_center)
        current_value = self._cell_value(current)

        # Expand outward in Hilbert-value order: v±1, v±2, ...
        regions: list[AABB] = []
        offset = 1
        while len(regions) < N_PREFETCH_CELLS and offset <= 4 * N_PREFETCH_CELLS:
            for value in (current_value + offset, current_value - offset):
                coords = self._coords_from_value(value)
                if coords is not None:
                    regions.append(self.grid.cell_bounds(coords))
                if len(regions) >= N_PREFETCH_CELLS:
                    break
            offset += 1
        # The grid's 16**dims cells always hold N_PREFETCH_CELLS neighbours.
        return [
            PrefetchTarget(
                anchor=self._last_center,
                direction=np.zeros(3),
                share=1.0,
                regions=tuple(regions),
            )
        ]
