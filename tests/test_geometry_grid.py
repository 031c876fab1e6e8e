"""Uniform-grid math: conversions, and the exact segment DDA oracle."""

import numpy as np
import pytest

from repro.geometry import AABB, UniformGrid
from tests.oracles.geometry import cells_of_segment, clip_segment_to_aabb

BOUNDS = AABB([0, 0, 0], [10, 10, 10])
GRID = UniformGrid(BOUNDS, (5, 5, 5))


class TestConstruction:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            UniformGrid(BOUNDS, (0, 5, 5))

    def test_rejects_two_axis_shape(self):
        with pytest.raises(ValueError):
            UniformGrid(BOUNDS, (5, 5))

    def test_with_cell_count_rejects_zero(self):
        with pytest.raises(ValueError):
            UniformGrid.with_cell_count(BOUNDS, 0)

    def test_with_cell_count_hits_target_roughly(self):
        grid = UniformGrid.with_cell_count(BOUNDS, 4096)
        assert 2048 <= grid.n_cells <= 8192

    def test_with_cell_count_adapts_to_aspect(self):
        flat = AABB([0, 0, 0], [100, 100, 1])
        grid = UniformGrid.with_cell_count(flat, 64)
        nx, ny, nz = grid.shape
        assert nz <= 2
        assert nx > 2 and ny > 2

    def test_with_cell_count_minimum_one(self):
        grid = UniformGrid.with_cell_count(BOUNDS, 1)
        assert grid.n_cells >= 1


class TestConversions:
    def test_cell_of_point_center(self):
        assert GRID.cell_of_point([5, 5, 5]) == (2, 2, 2)

    def test_cell_of_point_clamps_outside(self):
        assert GRID.cell_of_point([-1, 50, 5]) == (0, 4, 2)

    def test_flat_id_is_row_major(self):
        assert GRID.flat_ids(np.array([(0, 0, 0), (4, 4, 4), (1, 2, 3)])).tolist() == [0, 124, 38]

    def test_flat_ids_vectorized_matches_scalar(self, rng):
        coords = rng.integers(0, 5, size=(40, 3))
        flat = GRID.flat_ids(coords)
        for i, (x, y, z) in enumerate(coords.tolist()):
            assert flat[i] == (x * 5 + y) * 5 + z

    def test_cells_of_points_matches_scalar(self, rng):
        pts = rng.uniform(0, 10, size=(40, 3))
        cells = GRID.cells_of_points(pts)
        for i in range(40):
            assert tuple(cells[i]) == GRID.cell_of_point(pts[i])

    def test_cell_bounds_tile_the_grid(self):
        total = sum(GRID.cell_bounds((x, y, z)).volume
                    for x in range(5) for y in range(5) for z in range(5))
        assert total == pytest.approx(BOUNDS.volume)


class TestSegmentRasterization:
    def test_single_cell(self):
        cells = cells_of_segment(GRID, [0.5, 0.5, 0.5], [1.0, 1.0, 1.0])
        assert cells == [(0, 0, 0)]

    def test_axis_aligned_run(self):
        cells = cells_of_segment(GRID, [0.5, 0.5, 0.5], [9.5, 0.5, 0.5])
        assert cells == [(i, 0, 0) for i in range(5)]

    def test_outside_segment_empty(self):
        assert cells_of_segment(GRID, [20, 20, 20], [30, 30, 30]) == []

    def test_endpoints_always_included(self, rng):
        for _ in range(25):
            a = rng.uniform(0, 10, size=3)
            b = rng.uniform(0, 10, size=3)
            cells = cells_of_segment(GRID, a, b)
            assert GRID.cell_of_point(a) in cells
            assert GRID.cell_of_point(b) in cells

    def test_cells_actually_touch_segment(self, rng):
        """Every reported cell is within one cell diagonal of the segment."""
        for _ in range(25):
            a = rng.uniform(0, 10, size=3)
            b = rng.uniform(0, 10, size=3)
            for cell in cells_of_segment(GRID, a, b):
                box = GRID.cell_bounds(cell).inflate(1e-6)
                clipped = clip_segment_to_aabb(a, b, box.inflate(2.1))
                assert clipped is not None
