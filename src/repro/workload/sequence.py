"""Guided spatial query sequence generation.

A guided sequence (paper §1) is ``n`` range queries whose locations are
determined by a guiding structure: here, a random walk over the
dataset's ground-truth navigation graph.  Query centers are spaced along
the walk by the query side length plus the gap distance, so consecutive
queries are adjacent (gap 0), slightly overlapping (negative gap) or
separated (positive gap), exactly the three regimes the paper discusses.

The generated :class:`Query` records the ground-truth walk direction for
evaluation purposes; prefetchers only ever see the query bounds and
result contents.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.dataset import Dataset, Polyline
from repro.geometry.aabb import AABB
from repro.geometry.frustum import Frustum
from repro.util import norm

__all__ = ["Query", "QuerySequence", "generate_sequence", "generate_sequences"]


@dataclass(frozen=True)
class Query:
    """One range query of a guided sequence."""

    bounds: AABB
    center: np.ndarray
    direction: np.ndarray  # ground-truth walk tangent (evaluation only)
    frustum: Frustum | None = None


@dataclass
class QuerySequence:
    """A guided sequence plus the workload parameters that shaped it."""

    queries: list[Query]
    window_ratio: float
    gap: float
    volume: float
    path: Polyline
    dataset_name: str = ""

    def __len__(self) -> int:
        return len(self.queries)

def _query_side(dataset: Dataset, volume: float) -> float:
    """Edge length of a query of the given volume (area for 2D data)."""
    if volume <= 0:
        raise ValueError("query volume must be positive")
    if dataset.dims == 2:
        return float(volume) ** 0.5
    return float(volume) ** (1.0 / 3.0)


def _make_query(
    dataset: Dataset,
    center: np.ndarray,
    direction: np.ndarray,
    volume: float,
    side: float,
    aspect: str,
) -> Query:
    if dataset.dims == 2:
        # Planar datasets: a square footprint covering the full z-range.
        z_lo = dataset.bounds.lo[2] - 1.0
        z_hi = dataset.bounds.hi[2] + 1.0
        lo = np.array([center[0] - side / 2.0, center[1] - side / 2.0, z_lo])
        hi = np.array([center[0] + side / 2.0, center[1] + side / 2.0, z_hi])
        return Query(AABB(lo, hi), center.copy(), direction.copy())
    if aspect == "cube":
        return Query(AABB.cube(center, volume), center.copy(), direction.copy())
    if aspect == "frustum":
        frustum = Frustum.from_volume(center, direction, volume)
        return Query(frustum.bounding_aabb(), center.copy(), direction.copy(), frustum)
    raise ValueError(f"unknown aspect {aspect!r} (expected 'cube' or 'frustum')")


#: Arc steps resolved per array pass.  At gap 0 consecutive centers lie
#: 50 or more steps apart (the spacing is one side, a step 2 % of it),
#: so a window holds a few of them, each center's distance pass stays
#: short, and memory stays flat in the path length.
_WINDOW_STEPS = 256


def _walk_centers(
    path: Polyline, side: float, spacing: float, n_centers: int
) -> list[tuple[float, np.ndarray]]:
    """Arc and point of up to ``n_centers`` query centers along ``path``.

    The first center sits at arc ``side / 2``.  The arc then advances in
    steps of 2 % of the side, and the next center is the first arc before
    the path's end whose point is ``spacing`` or more from the previous
    center in a straight line.  Fewer centers come back when the path
    runs out first.

    The arcs are the running sum ``side / 2 + step + step + ...``, one
    window at a time: ``np.add.accumulate`` adds left to right, so each
    arc has the bits of the scalar ``arc += step`` it stands for, and a
    window resumes the sum from the previous window's last arc.  Points
    come from ``Polyline.points_at`` (row-wise equal to the one-point
    lookup) and distances from ``repro.util.norm``, whose rows equal its
    1-D form; DESIGN.md §12.
    """
    steps = np.full(_WINDOW_STEPS, max(side * 0.02, 1e-9))
    steps[0] = side / 2.0
    arcs = np.add.accumulate(steps)
    points = path.points_at(arcs)
    centers = [(arcs[0], points[0])]
    candidate = 1
    while len(centers) < n_centers:
        live = int(np.searchsorted(arcs, path.length))  # arcs before the end
        far = ~(norm(points[candidate:live] - centers[-1][1]) < spacing)
        if far.any():
            candidate += int(far.argmax())
            centers.append((arcs[candidate], points[candidate]))
            candidate += 1
        elif live < len(arcs):
            break  # the path ends before the next center
        else:
            steps[0] = arcs[-1]
            arcs = np.add.accumulate(steps)
            points = path.points_at(arcs)
            candidate = 1
    return centers


def generate_sequence(
    dataset: Dataset,
    rng: np.random.Generator,
    n_queries: int,
    volume: float,
    gap: float = 0.0,
    aspect: str = "cube",
    window_ratio: float = 1.0,
) -> QuerySequence:
    """Generate one guided query sequence.

    ``volume`` follows the paper's units (µm³ after density rescaling;
    squared units for 2D datasets).  ``gap`` is the boundary-to-boundary
    distance between consecutive queries along the guiding path.
    """
    if n_queries < 1:
        raise ValueError("n_queries must be >= 1")
    side = _query_side(dataset, volume)
    spacing = side + float(gap)
    if spacing <= 0:
        raise ValueError(f"query spacing {spacing} must be positive (gap too negative)")

    # Tortuous guiding structures cover less Euclidean distance than arc
    # length, so walk generously; centers are placed at *Euclidean*
    # spacing so consecutive query regions are adjacent boxes (gap 0),
    # overlapping (negative gap) or separated (positive gap) in space,
    # exactly as in the paper's Figure 1.
    walk_length = spacing * n_queries * 6.0 + side
    path = dataset.nav.random_walk(rng, walk_length)

    queries = [
        _make_query(dataset, center, path.tangent_at(arc), volume, side, aspect)
        for arc, center in _walk_centers(path, side, spacing, n_queries)
    ]
    while len(queries) < n_queries:
        # Degenerate navigation graphs (or walks that fold back onto
        # themselves for their entire length) can exhaust the path; the
        # rare remainder continues straight along the last direction so
        # the sequence always has the requested length.
        previous = queries[-1]
        center = previous.center + previous.direction * spacing
        queries.append(_make_query(dataset, center, previous.direction, volume, side, aspect))
    return QuerySequence(
        queries=queries,
        window_ratio=float(window_ratio),
        gap=float(gap),
        volume=float(volume),
        path=path,
        dataset_name=dataset.name,
    )


def generate_sequences(
    dataset: Dataset,
    n_sequences: int,
    seed: int,
    n_queries: int,
    volume: float,
    gap: float = 0.0,
    aspect: str = "cube",
    window_ratio: float = 1.0,
) -> list[QuerySequence]:
    """Generate ``n_sequences`` independent guided sequences.

    Each sequence gets its own deterministic child RNG so experiments
    are reproducible regardless of evaluation order.
    """
    root = np.random.default_rng(seed)
    children = root.spawn(n_sequences)
    return [
        generate_sequence(
            dataset,
            child,
            n_queries=n_queries,
            volume=volume,
            gap=gap,
            aspect=aspect,
            window_ratio=window_ratio,
        )
        for child in children
    ]
