"""Uniform grid math shared by grid hashing and the baselines.

A :class:`UniformGrid` partitions an AABB into ``nx * ny * nz``
equi-volume cells.  It converts between points, integer cell coordinates
and flat cell ids and rasterizes segments into the cells they cross (3D
DDA) -- the workhorses behind the paper's grid-hashing graph
construction (§4.2) and the Hilbert-Prefetch baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB
from repro.geometry.primitives import clip_segment_to_aabb
from repro.util import norm

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

    def flat_id(self, coords) -> int:
        cx, cy, cz = coords
        nx, ny, nz = self.shape
        if not (0 <= cx < nx and 0 <= cy < ny and 0 <= cz < nz):
            raise IndexError(f"cell {coords} outside grid of shape {self.shape}")
        return (cx * ny + cy) * nz + cz

    def flat_ids(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`flat_id` for an ``(n, 3)`` int array."""
        coords = np.asarray(coords)
        _, ny, nz = self.shape
        return (coords[:, 0] * ny + coords[:, 1]) * nz + coords[:, 2]

    def cell_bounds(self, coords) -> AABB:
        ext = self.cell_extent
        lo = self.bounds.lo + np.asarray(coords, dtype=np.float64) * ext
        return AABB(lo, lo + ext)

    # -- rasterization ------------------------------------------------------

    def cells_of_segment(self, a, b) -> list[tuple[int, int, int]]:
        """All cells crossed by segment ``[a, b]`` (clipped to the grid).

        Uses a conservative 3D DDA: steps through cell boundaries along
        the segment, which visits every crossed cell exactly once.
        Returns an empty list for segments entirely outside the grid.
        """
        clipped = clip_segment_to_aabb(a, b, self.bounds)
        if clipped is None:
            return []
        p0, p1 = clipped
        start = self.cell_of_point(p0)
        end = self.cell_of_point(p1)
        if start == end:
            return [start]

        cells = [start]
        delta = p1 - p0
        length = norm(delta)
        if length < _EPS:
            return cells
        direction = delta / length
        ext = self.cell_extent

        current = np.array(start, dtype=int)
        position = p0.copy()
        travelled = 0.0
        # Walk boundary-to-boundary; bounded by the number of cells a
        # segment can cross (sum of grid shape) as a safety net.
        max_steps = int(sum(self.shape)) + 3
        for _ in range(max_steps):
            # Distance to the next cell boundary along each axis.
            t_next = np.full(3, np.inf)
            for axis in range(3):
                d = direction[axis]
                if abs(d) < _EPS:
                    continue
                if d > 0:
                    boundary = self.bounds.lo[axis] + (current[axis] + 1) * ext[axis]
                else:
                    boundary = self.bounds.lo[axis] + current[axis] * ext[axis]
                t_next[axis] = (boundary - position[axis]) / d
            axis = int(np.argmin(t_next))
            step = t_next[axis]
            if not np.isfinite(step):
                break
            travelled += step
            if travelled >= length - _EPS:
                break
            position = position + direction * (step + _EPS)
            current[axis] += 1 if direction[axis] > 0 else -1
            if np.any(current < 0) or np.any(current >= np.asarray(self.shape)):
                break
            cells.append(tuple(int(c) for c in current))
            if tuple(current) == end:
                break
        if end not in cells:
            cells.append(end)
        return cells
