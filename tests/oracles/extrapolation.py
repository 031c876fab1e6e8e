"""The position-only baselines' per-query plans, as they were before the
walk kernel (``PositionOnlyPrefetcher._targets``): one scalar function
per method, fed the centers and sides observed so far.  The kernel law
test holds every kernel row to these, byte for byte."""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.base import CONCENTRIC_FACTORS, PrefetchTarget
from repro.baselines.extrapolation import VELOCITY_WINDOW
from repro.util import norm


def _target_at(predicted_center, direction, side) -> PrefetchTarget:
    direction = np.asarray(direction, dtype=np.float64)
    length = norm(direction)
    if length > 0:
        direction = direction / length
    center = np.asarray(predicted_center, dtype=np.float64)
    half = (side * CONCENTRIC_FACTORS / 2.0)[:, None]
    regions = np.stack((center - half, center + half), axis=1)
    return PrefetchTarget(anchor=predicted_center, direction=direction, share=1.0, regions=regions)


def straight_line(centers, sides):
    if len(centers) < 2:
        return []
    delta = centers[-1] - centers[-2]
    if norm(delta) == 0:
        return []
    return [_target_at(centers[-1] + delta, delta, sides[-1])]


def polynomial(centers, sides, degree):
    needed = degree + 1
    if len(centers) < needed:
        return []
    recent = centers[-needed:]
    predicted = sum(
        (-1) ** (degree - k) * math.comb(needed, k) * center for k, center in enumerate(recent)
    )
    direction = predicted - centers[-1]
    if norm(direction) == 0:
        return []
    return [_target_at(predicted, direction, sides[-1])]


def velocity(centers, sides):
    if len(centers) < 2:
        return []
    recent = np.array(centers[-(VELOCITY_WINDOW + 1) :])
    mean = np.diff(recent, axis=0).mean(axis=0)
    if norm(mean) == 0:
        return []
    return [_target_at(centers[-1] + mean, mean, sides[-1])]


def ewma(centers, sides, lam):
    if len(centers) < 2:
        return []
    movements = np.diff(np.array(centers), axis=0)
    n = len(movements)
    weights = lam * (1.0 - lam) ** np.arange(n)
    weights /= weights.sum()
    mean = (weights[::-1, None] * movements).sum(axis=0)
    if norm(mean) == 0:
        return []
    return [_target_at(centers[-1] + mean, mean, sides[-1])]
