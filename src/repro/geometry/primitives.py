"""Line-segment primitives.

The BBP tissue models represent neuron morphologies as 3D cylinders; the
paper reduces each cylinder to the straight line segment between its two
endpoints when building the proximity graph (§7.1: "SCOUT reduces the
cylinder to a line segment by solely using the two endpoints").  The same
simplification serves the arterial tree, and road segments are already
segments.  This module provides the segment math the rest of the system
needs, in arrays: AABB clipping and intersection masks over ``(n, 3)``
endpoint arrays.  Their one-segment references live with the tests
(``tests/oracles/geometry.py``).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.aabb import AABB
from repro.util import norm

__all__ = [
    "perpendicular_frame",
    "segments_clip_intervals",
]

_EPS = 1e-12


def perpendicular_frame(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit ``u``, ``v`` with ``(u, v, w)`` right-handed, for a unit ``w``.

    ``u`` is ``w`` crossed with the x axis, or the y axis if ``|w_x| > 0.9``.
    """
    helper = np.array([0.0, 1.0, 0.0] if abs(w[0]) > 0.9 else [1.0, 0.0, 0.0])
    u = np.cross(w, helper)
    u /= norm(u)
    return u, np.cross(w, u)


def segments_clip_intervals(
    a: np.ndarray, b: np.ndarray, box: AABB
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized slab clip of ``n`` segments against one box.

    Returns ``(ok, t0, t1)``: whether each segment hits the box and the
    clipped parametric interval within ``[0, 1]``.  It batches the
    one-segment Liang-Barsky clip kept as a test oracle
    (``slab_clip`` in ``tests/oracles/geometry.py``) -- same epsilon,
    same per-axis quotients, and max/min are exact in any order -- so
    the intervals, and the endpoints ``a + t0*delta`` / ``a + t1*delta``,
    equal the oracle's bit for bit.  ``t0``/``t1`` are meaningful only
    where ``ok`` is true.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = b - a

    # All three slabs at once, as (n, 3) arrays.
    lo = box.lo - a
    hi = box.hi - a
    parallel = np.abs(delta) < _EPS
    # Parallel segments must start inside the slab.
    outside = parallel & ((lo > 0.0) | (hi < 0.0))
    ok = ~(outside[:, 0] | outside[:, 1] | outside[:, 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        ta = np.where(parallel, -np.inf, lo / delta)
        tb = np.where(parallel, np.inf, hi / delta)
    swap = ta > tb
    t0 = np.maximum(0.0, np.where(swap, tb, ta).max(axis=1))
    t1 = np.minimum(1.0, np.where(swap, ta, tb).min(axis=1))
    ok &= t0 <= t1
    return ok, t0, t1
