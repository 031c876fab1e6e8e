"""Hilbert-curve correctness: bijectivity, locality, bounds."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry import hilbert_decode, hilbert_encode


class TestRoundtrip:
    @given(st.integers(0, 2**15 - 1))
    def test_3d_decode_encode(self, value):
        coords = hilbert_decode(value, dims=3, bits=5)
        assert hilbert_encode(coords, bits=5) == value

    @given(st.tuples(st.integers(0, 31), st.integers(0, 31), st.integers(0, 31)))
    def test_3d_encode_decode(self, coords):
        value = hilbert_encode(coords, bits=5)
        assert hilbert_decode(value, dims=3, bits=5) == coords

    @given(st.tuples(st.integers(0, 255), st.integers(0, 255)))
    def test_2d_roundtrip(self, coords):
        value = hilbert_encode(coords, bits=8)
        assert hilbert_decode(value, dims=2, bits=8) == coords


class TestRoundtripAnyPrecision:
    """Bijectivity as a property over the whole (dims, bits) lattice.

    The fixed-precision round-trips above pin the common configurations;
    these shrink over precision too, so a transform bug that only bites
    at odd bit widths (the Skilling loops run ``bits - 1`` times) still
    falls to the smallest failing example.
    """

    @given(st.integers(2, 3), st.integers(1, 6), st.integers(0, 2**18 - 1))
    def test_decode_encode_identity(self, dims, bits, seed):
        value = seed % (1 << (dims * bits))
        coords = hilbert_decode(value, dims=dims, bits=bits)
        assert all(0 <= c < (1 << bits) for c in coords)
        assert hilbert_encode(coords, bits=bits) == value

    @given(st.integers(2, 3), st.integers(1, 6), st.integers(0, 2**18 - 1))
    def test_encode_decode_identity(self, dims, bits, seed):
        coords = tuple((seed >> (axis * bits)) % (1 << bits) for axis in range(dims))
        value = hilbert_encode(coords, bits=bits)
        assert 0 <= value < (1 << (dims * bits))
        assert hilbert_decode(value, dims=dims, bits=bits) == coords


class TestLocalityMonotonicity:
    """Curve distance bounds grid distance, monotonically in the step.

    Each unit step along the curve moves exactly one grid cell, so by
    the triangle inequality ``d`` curve steps can move at most ``d``
    cells of Manhattan distance -- the locality guarantee the sharded
    cache's range partitioning (DESIGN.md §10) and the Hilbert-Prefetch
    baseline both lean on.  Property-tested so the bound holds from
    adjacent values out to long strides, not just for neighbors.
    """

    @given(st.integers(0, 2**8 - 2), st.integers(1, 64))
    def test_2d_curve_distance_bounds_manhattan_distance(self, value, step):
        step = min(step, 2**8 - 1 - value)
        a = np.array(hilbert_decode(value, dims=2, bits=4))
        b = np.array(hilbert_decode(value + step, dims=2, bits=4))
        assert np.abs(b - a).sum() <= step

    @given(st.integers(0, 2**9 - 2), st.integers(1, 64))
    def test_3d_curve_distance_bounds_manhattan_distance(self, value, step):
        step = min(step, 2**9 - 1 - value)
        a = np.array(hilbert_decode(value, dims=3, bits=3))
        b = np.array(hilbert_decode(value + step, dims=3, bits=3))
        assert np.abs(b - a).sum() <= step

    @given(st.integers(2, 3), st.integers(2, 5), st.integers(0, 2**15 - 2))
    def test_unit_steps_move_exactly_one_cell(self, dims, bits, seed):
        value = seed % ((1 << (dims * bits)) - 1)
        a = np.array(hilbert_decode(value, dims=dims, bits=bits))
        b = np.array(hilbert_decode(value + 1, dims=dims, bits=bits))
        assert np.abs(b - a).sum() == 1


class TestCurveStructure:
    def test_visits_every_cell_exactly_once_2d(self):
        seen = {hilbert_decode(v, dims=2, bits=3) for v in range(64)}
        assert len(seen) == 64

    def test_visits_every_cell_exactly_once_3d(self):
        seen = {hilbert_decode(v, dims=3, bits=2) for v in range(64)}
        assert len(seen) == 64

    def test_consecutive_values_are_grid_neighbors_2d(self):
        """The defining Hilbert property: curve steps move one cell."""
        previous = np.array(hilbert_decode(0, dims=2, bits=4))
        for value in range(1, 256):
            current = np.array(hilbert_decode(value, dims=2, bits=4))
            assert np.abs(current - previous).sum() == 1, value
            previous = current

    def test_consecutive_values_are_grid_neighbors_3d(self):
        previous = np.array(hilbert_decode(0, dims=3, bits=3))
        for value in range(1, 512):
            current = np.array(hilbert_decode(value, dims=3, bits=3))
            assert np.abs(current - previous).sum() == 1, value
            previous = current


class TestValidation:
    def test_rejects_out_of_range_coordinate(self):
        with pytest.raises(ValueError):
            hilbert_encode((8, 0, 0), bits=3)

    def test_rejects_negative_coordinate(self):
        with pytest.raises(ValueError):
            hilbert_encode((-1, 0, 0), bits=3)

    def test_rejects_out_of_range_value(self):
        with pytest.raises(ValueError):
            hilbert_decode(512, dims=3, bits=3)

    def test_decode_rejects_zero_dims_or_bits(self):
        with pytest.raises(ValueError, match="dims and bits"):
            hilbert_decode(0, dims=0, bits=4)
        with pytest.raises(ValueError, match="dims and bits"):
            hilbert_decode(0, dims=3, bits=0)

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            hilbert_encode((0, 0), bits=0)

    def test_one_dimension_is_identity(self):
        assert hilbert_encode((5,), bits=4) == 5
        assert hilbert_decode(5, dims=1, bits=4) == (5,)
