"""Uniform grid math shared by grid hashing and the baselines.

A :class:`UniformGrid` partitions an AABB into ``nx * ny * nz``
equi-volume cells.  It converts between points, integer cell coordinates
and flat cell ids -- the workhorses behind the paper's grid-hashing
graph construction (§4.2) and the Hilbert-Prefetch baseline.  (The
exact segment DDA that grid hashing's sampling approximates is a test
oracle, ``tests/oracles/geometry.py``.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB

__all__ = ["UniformGrid"]

_EPS = 1e-9


@dataclass(frozen=True)
class UniformGrid:
    """An ``nx x ny x nz`` partition of ``bounds`` into equal cells."""

    bounds: AABB
    shape: tuple[int, int, int]

    def __post_init__(self) -> None:
        shape = tuple(int(s) for s in self.shape)
        if len(shape) != 3 or any(s < 1 for s in shape):
            raise ValueError(f"grid shape must be three positive ints, got {self.shape}")
        object.__setattr__(self, "shape", shape)

    @classmethod
    def with_cell_count(cls, bounds: AABB, n_cells: int) -> "UniformGrid":
        """A roughly-cubic grid with approximately ``n_cells`` total cells.

        The paper's sensitivity analysis (Fig 13e) varies the total number
        of grid cells (32768 down to 8); the per-axis resolution is the
        cube root, adapted to the box aspect ratio so the cells stay
        near-cubic.
        """
        if n_cells < 1:
            raise ValueError("n_cells must be >= 1")
        extent = np.maximum(bounds.extent, _EPS)
        # Choose per-axis counts proportional to extent with product ~ n_cells.
        scale = (n_cells / float(np.prod(extent))) ** (1.0 / 3.0)
        shape = np.maximum(1, np.round(extent * scale).astype(int))
        return cls(bounds, tuple(int(s) for s in shape))

    # -- sizes ------------------------------------------------------------

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    @property
    def cell_extent(self) -> np.ndarray:
        return self.bounds.extent / np.asarray(self.shape, dtype=np.float64)

    # -- coordinate conversions ---------------------------------------------

    def cell_of_point(self, point) -> tuple[int, int, int]:
        """Integer cell coordinates of a point (clamped to the grid)."""
        point = np.asarray(point, dtype=np.float64)
        rel = (point - self.bounds.lo) / np.maximum(self.cell_extent, _EPS)
        coords = np.clip(np.floor(rel).astype(int), 0, np.asarray(self.shape) - 1)
        return tuple(int(c) for c in coords)

    def cells_of_points(self, points) -> np.ndarray:
        """Vectorized :meth:`cell_of_point` for an ``(n, 3)`` array."""
        points = np.asarray(points, dtype=np.float64)
        rel = (points - self.bounds.lo) / np.maximum(self.cell_extent, _EPS)
        return np.clip(np.floor(rel).astype(int), 0, np.asarray(self.shape) - 1)

    def flat_ids(self, coords: np.ndarray) -> np.ndarray:
        """Row-major ids ``(x * ny + y) * nz + z`` of an ``(n, 3)`` int array."""
        coords = np.asarray(coords)
        _, ny, nz = self.shape
        return (coords[:, 0] * ny + coords[:, 1]) * nz + coords[:, 2]

    def cell_bounds(self, coords) -> AABB:
        ext = self.cell_extent
        lo = self.bounds.lo + np.asarray(coords, dtype=np.float64) * ext
        return AABB(lo, lo + ext)
