"""Trajectory-extrapolation baselines (paper §2.2).

These methods assume navigational access follows a smooth path and
extrapolate *past query positions*:

- **Straight Line** [26]: linear extrapolation of the last two centers.
- **Polynomial** [4, 5]: per-coordinate polynomial of degree ``d``
  through the last ``d + 1`` centers, evaluated one step ahead.
- **Velocity** [30]: straight line using a velocity averaged over a
  short window of recent movements.
- **EWMA** [7]: exponentially weighted moving average of the movement
  vectors; the paper's best baseline at λ = 0.3.

The paper's Figure 3 shows why they struggle on neuron fibers: large
queries make the trace jagged, and higher-degree polynomials oscillate.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.baselines.base import PositionOnlyPrefetcher, PrefetchTarget

__all__ = [
    "EWMAPrefetcher",
    "PolynomialPrefetcher",
    "StraightLinePrefetcher",
    "VelocityPrefetcher",
]

#: Recent movements the Velocity baseline averages.
VELOCITY_WINDOW = 3


@functools.lru_cache(maxsize=1024)
def _recency_weights(lam: float, n: int) -> np.ndarray:
    """EWMA's weights over ``n`` movements as a read-only ``(n, 1)`` column,
    oldest first: λ on the last, (1-λ)·λ on the one before, ...,
    renormalised.  Computed for each ``n`` on its own (a slice of a
    longer power array rounds differently)."""
    weights = lam * (1.0 - lam) ** np.arange(n)
    weights /= weights.sum()
    weights.flags.writeable = False
    return weights[::-1, None]


class StraightLinePrefetcher(PositionOnlyPrefetcher):
    """Linear extrapolation of the last two query centers."""

    name = "straight-line"
    #: Recent movements averaged into the velocity (the last one alone).
    window = 1

    def plan(self) -> list[PrefetchTarget]:
        return self._last_plan()

    def _predict(self, centers: np.ndarray, start: int):
        """The mean of the last ``window`` movements (all of them, while
        fewer), added to the last center; the velocity is the direction."""
        movements = centers[1:] - centers[:-1]
        cursors = np.arange(start, len(centers))
        count = np.minimum(cursors, self.window)
        first = cursors - count
        velocity = movements[first]
        for k in range(1, self.window):
            later = movements[np.minimum(first + k, len(movements) - 1)]
            velocity = np.where((k < count)[:, None], velocity + later, velocity)
        velocity = velocity / count[:, None]
        return centers[start:] + velocity, velocity


class PolynomialPrefetcher(PositionOnlyPrefetcher):
    """Degree-``d`` polynomial extrapolation of the query centers.

    Fits each coordinate as a polynomial in the step index over the last
    ``degree + 1`` centers (the paper uses "as many recent query
    locations ... as their degree plus one") and evaluates one step
    ahead.  The fit through ``degree + 1`` points is exact, so the next
    point is the one whose ``degree + 1``-th difference is zero.
    """

    def __init__(self, degree: int = 2) -> None:
        super().__init__()
        if degree < 1:
            raise ValueError("polynomial degree must be >= 1")
        self.degree = degree
        self.history = degree + 1
        self.name = f"poly-{degree}"

    def plan(self) -> list[PrefetchTarget]:
        return self._last_plan()

    def _predict(self, centers: np.ndarray, start: int):
        """The zero-difference point; the direction runs from the last center."""
        oldest, end = start - self.degree, len(centers) - self.degree
        predicted = sum(
            (-1) ** (self.degree - k) * math.comb(self.history, k) * centers[oldest + k : end + k]
            for k in range(self.history)
        )
        return predicted, predicted - centers[start:]


class VelocityPrefetcher(StraightLinePrefetcher):
    """Straight-line extrapolation with a velocity averaged over a window."""

    name = f"velocity-{VELOCITY_WINDOW}"
    window = VELOCITY_WINDOW

    def plan(self) -> list[PrefetchTarget]:
        return self._last_plan()


class EWMAPrefetcher(PositionOnlyPrefetcher):
    """Exponentially weighted moving average of the movement vectors.

    The last movement is weighted λ, the one before (1-λ)·λ, and so on
    (§2.2), with the weights renormalized over the observed history.
    """

    def __init__(self, lam: float = 0.3) -> None:
        super().__init__()
        if not 0.0 < lam <= 1.0:
            raise ValueError("lambda must be in (0, 1]")
        self.lam = lam
        self.name = f"ewma-{lam:g}"

    def plan(self) -> list[PrefetchTarget]:
        return self._last_plan()

    def _predict(self, centers: np.ndarray, start: int):
        """The weighted velocity over every movement so far, added to the last center."""
        movements = centers[1:] - centers[:-1]
        velocity = np.array(
            [
                (_recency_weights(self.lam, n) * movements[:n]).sum(axis=0)
                for n in range(start, len(centers))
            ]
        )
        return centers[start:] + velocity, velocity
