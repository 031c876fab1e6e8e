"""The prefetcher protocol shared by SCOUT and every baseline.

The simulator drives prefetchers through three calls per sequence step
(mirroring the paper's Figure-2 timeline):

1. :meth:`Prefetcher.observe` -- the query just executed, with its
   bounds and result object ids (content-aware methods use the content;
   position-only methods just record the center).
2. :meth:`Prefetcher.prediction_cost_seconds` -- the simulated CPU time
   of the prediction computation, charged against the prefetch window.
3. :meth:`Prefetcher.plan` -- prioritized :class:`PrefetchTarget`\\ s.
   The simulator expands each target into incremental prefetch queries
   (§5.1) and reads pages until the window budget is exhausted.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.geometry.aabb import AABB
from repro.util import norm

__all__ = ["ObservedQuery", "Prefetcher", "PrefetchTarget", "concentric_corners"]

#: Edge lengths of the position-only baselines' concentric regions, as
#: fractions of the last query's side, innermost first.
CONCENTRIC_FACTORS = np.array([0.6, 0.85, 1.1])


@dataclass(frozen=True)
class ObservedQuery:
    """What a prefetcher learns about one executed query."""

    index: int
    bounds: AABB
    result_object_ids: np.ndarray

    @property
    def center(self) -> np.ndarray:
        return self.bounds.center

    @property
    def side(self) -> float:
        """Characteristic edge length of the query region."""
        return math.cbrt(max(self.bounds.volume, 1e-30))


@dataclass(frozen=True)
class PrefetchTarget:
    """One predicted location to prefetch around.

    ``anchor`` is where prefetching starts (the predicted entry point of
    the next query); ``direction`` the axis along which incremental
    prefetch queries advance; ``share`` the fraction of the window
    budget allotted (shares are normalized by the simulator).  When
    ``regions`` is set, the target prefetches those explicit regions in
    order instead of expanding incrementally.  They are an ``AABB``
    tuple (Hilbert's grid cells, the oracle's next query) or packed
    ``(n, 2, 3)`` corners, region ``i``'s ``lo`` at ``[i, 0]`` and
    ``hi`` at ``[i, 1]`` (the position-only baselines' concentric boxes,
    :func:`concentric_corners`): either form is what
    :meth:`~repro.index.base.SpatialIndex.pages_for_regions` takes.
    """

    anchor: np.ndarray
    direction: np.ndarray
    share: float = 1.0
    regions: tuple[AABB, ...] | np.ndarray | None = None

    def __post_init__(self) -> None:
        anchor = np.asarray(self.anchor, dtype=np.float64)
        direction = np.asarray(self.direction, dtype=np.float64)
        length = norm(direction)
        if length > 0:
            direction = direction / length
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "direction", direction)
        if self.share < 0:
            raise ValueError("share must be non-negative")


def concentric_corners(center: np.ndarray, side) -> np.ndarray:
    """Packed ``(..., 3, 2, 3)`` corners of the concentric regions around ``center``.

    ``center`` is one ``(3,)`` point with a scalar ``side``, or ``(k, 3)``
    rows with ``(k,)`` sides.  Row ``j`` of a point's block holds the
    ``lo`` / ``hi`` that ``AABB.from_center_extent(center, side *
    CONCENTRIC_FACTORS[j])`` builds, by the same floating-point
    operations (``extent = side * f``, ``half = extent / 2.0``, ``center
    -/+ half``) and without validating a box.
    """
    center = np.asarray(center, dtype=np.float64)[..., None, :]
    half = (np.asarray(side)[..., None] * CONCENTRIC_FACTORS / 2.0)[..., None]
    corners = np.empty(half.shape[:-1] + (2, 3))
    np.subtract(center, half, out=corners[..., 0, :])
    np.add(center, half, out=corners[..., 1, :])
    return corners


class Prefetcher(abc.ABC):
    """Base class of all prefetching strategies."""

    #: Short identifier used in result tables.
    name: str = "base"

    def begin_sequence(self) -> None:
        """Reset per-sequence state (called before each query sequence)."""

    @abc.abstractmethod
    def observe(self, observed: ObservedQuery) -> None:
        """Ingest the query that just executed."""

    @abc.abstractmethod
    def plan(self) -> list[PrefetchTarget]:
        """Prefetch targets for the upcoming window, highest priority first."""

    def prediction_cost_seconds(self) -> float:
        """Simulated CPU cost of the last prediction (0 for trivial ones)."""
        return 0.0

    def graph_build_cost_seconds(self) -> float:
        """Portion of the prediction cost spent building the graph.

        Only content-aware prefetchers (SCOUT) report a non-zero value;
        the simulator records it for the Fig-14 breakdown.
        """
        return 0.0

    def gap_io_pages(self) -> list[int]:
        """Pages the predictor itself wants fetched (SCOUT-OPT gap traversal).

        The simulator reads these within the prefetch window *before*
        processing targets; they are prediction I/O, not result data.
        """
        return []

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class PositionOnlyPrefetcher(Prefetcher):
    """Common bookkeeping and the one plan kernel of the position-only baselines.

    A subclass supplies its prediction rows, ``_predict(centers,
    start)``: for each cursor ``i`` from ``start`` (at least ``history -
    1``) to the last, the ``predicted`` center and the ``direction`` it
    extrapolates from ``centers[:i + 1]``, as two ``(k, 3)`` arrays.  :meth:`_targets`
    turns rows into targets: :meth:`plan_walk` runs it over a whole walk
    (a plan tape), and each subclass's ``plan`` runs it on the last
    observed cursor only, so the arithmetic has one definition.
    """

    #: Centers a prediction needs.
    history = 2

    def __init__(self) -> None:
        self._centers: list[np.ndarray] = []
        self._sides: list[float] = []

    def begin_sequence(self) -> None:
        self._centers = []
        self._sides = []

    def observe(self, observed: ObservedQuery) -> None:
        self._centers.append(observed.center)
        self._sides.append(observed.side)

    def plan_walk(self, bounds: list[AABB]) -> list[list[PrefetchTarget]]:
        """Every cursor's plan over a walk's query bounds, in one kernel pass.

        Entry ``i`` is what :meth:`plan` returns after observing queries
        ``0..i``, bit for bit.  This prefetcher's history is neither read
        nor changed.
        """
        observed = [ObservedQuery(i, box, None) for i, box in enumerate(bounds)]
        centers = np.array([query.center for query in observed])
        sides = np.array([query.side for query in observed])
        return [[] if target is None else [target] for target in self._targets(centers, sides, 0)]

    def _last_plan(self) -> list[PrefetchTarget]:
        """What ``plan`` returns: the kernel on the last observed cursor."""
        n = len(self._centers)
        if n < self.history:
            return []
        (target,) = self._targets(np.array(self._centers), np.array(self._sides), n - 1)
        return [] if target is None else [target]

    def _targets(
        self, centers: np.ndarray, sides: np.ndarray, first: int
    ) -> list[PrefetchTarget | None]:
        """The target after observing ``centers[:i + 1]``, for each cursor
        ``i >= first``: ``None`` before ``history`` centers or on zero
        movement.

        Trajectory-extrapolation methods prefetch *around the predicted
        location* (§2.2); growing concentric regions let a short window
        cover the most likely data first.  (Boundary-anchored incremental
        expansion along the structure is SCOUT's own §5.1 technique and
        is deliberately not granted to the baselines.)
        """
        targets: list[PrefetchTarget | None] = [None] * (len(centers) - first)
        start = max(first, self.history - 1)
        if start >= len(centers):
            return targets
        predicted, direction = self._predict(centers, start)
        regions = concentric_corners(predicted, sides[start:])
        for row, (anchor, vector) in enumerate(zip(predicted, direction)):
            length = norm(vector)
            if length == 0:
                continue
            if length > 0:
                # Normalised here and again by the target, as each plan always was.
                vector = vector / length
            targets[start - first + row] = PrefetchTarget(
                anchor=anchor, direction=vector, share=1.0, regions=regions[row]
            )
        return targets
