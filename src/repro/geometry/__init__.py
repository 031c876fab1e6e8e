"""Geometric primitives used throughout the SCOUT reproduction.

Everything operates on plain numpy arrays: points are ``(3,)`` float
arrays, point sets are ``(n, 3)``, and axis-aligned boxes are
:class:`~repro.geometry.aabb.AABB` value objects.  All helpers are
vectorized so the simulator can process query results with thousands of
objects per step without Python-level loops.
"""

from repro.geometry.aabb import AABB, boxes_overlap
from repro.geometry.frustum import Frustum
from repro.geometry.hilbert import hilbert_decode, hilbert_encode
from repro.geometry.grid import UniformGrid

__all__ = [
    "AABB",
    "Frustum",
    "UniformGrid",
    "boxes_overlap",
    "hilbert_decode",
    "hilbert_encode",
]
