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

import math

import numpy as np

from repro.baselines.base import PositionOnlyPrefetcher, PrefetchTarget
from repro.util import norm

__all__ = [
    "EWMAPrefetcher",
    "PolynomialPrefetcher",
    "StraightLinePrefetcher",
    "VelocityPrefetcher",
]

#: Recent movements the Velocity baseline averages.
VELOCITY_WINDOW = 3


class StraightLinePrefetcher(PositionOnlyPrefetcher):
    """Linear extrapolation of the last two query centers."""

    name = "straight-line"

    def plan(self) -> list[PrefetchTarget]:
        if len(self._centers) < 2:
            return []
        delta = self._centers[-1] - self._centers[-2]
        if norm(delta) == 0:
            return []
        predicted = self._centers[-1] + delta
        return [self._target_at(predicted, delta)]


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
        self.name = f"poly-{degree}"

    def plan(self) -> list[PrefetchTarget]:
        needed = self.degree + 1
        if len(self._centers) < needed:
            return []
        recent = self._centers[-needed:]
        predicted = sum(
            (-1) ** (self.degree - k) * math.comb(needed, k) * center
            for k, center in enumerate(recent)
        )
        direction = predicted - self._centers[-1]
        if norm(direction) == 0:
            return []
        return [self._target_at(predicted, direction)]


class VelocityPrefetcher(PositionOnlyPrefetcher):
    """Straight-line extrapolation with a velocity averaged over a window."""

    name = f"velocity-{VELOCITY_WINDOW}"

    def plan(self) -> list[PrefetchTarget]:
        if len(self._centers) < 2:
            return []
        recent = np.array(self._centers[-(VELOCITY_WINDOW + 1):])
        velocity = np.diff(recent, axis=0).mean(axis=0)
        if norm(velocity) == 0:
            return []
        predicted = self._centers[-1] + velocity
        return [self._target_at(predicted, velocity)]


class EWMAPrefetcher(PositionOnlyPrefetcher):
    """Exponentially weighted moving average of the movement vectors.

    The last movement is weighted λ, the one before (1-λ)·λ, and so on
    (§2.2); implemented with the equivalent recursion ``v ← λ·Δ +
    (1-λ)·v`` with weights renormalized over the observed history.
    """

    def __init__(self, lam: float = 0.3) -> None:
        super().__init__()
        if not 0.0 < lam <= 1.0:
            raise ValueError("lambda must be in (0, 1]")
        self.lam = lam
        self.name = f"ewma-{lam:g}"

    def plan(self) -> list[PrefetchTarget]:
        if len(self._centers) < 2:
            return []
        movements = np.diff(np.array(self._centers), axis=0)
        n = len(movements)
        # Most recent movement first: weights λ, (1-λ)λ, (1-λ)²λ, ...
        weights = self.lam * (1.0 - self.lam) ** np.arange(n)
        weights /= weights.sum()
        velocity = (weights[::-1, None] * movements).sum(axis=0)
        if norm(velocity) == 0:
            return []
        predicted = self._centers[-1] + velocity
        return [self._target_at(predicted, velocity)]
