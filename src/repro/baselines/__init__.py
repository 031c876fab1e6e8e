"""Prefetching baselines from the paper's related work (§2, §3.3).

All prefetchers -- baselines and SCOUT alike -- implement the same
:class:`~repro.baselines.base.Prefetcher` protocol: they observe each
executed query (bounds and, for content-aware methods, result object
ids) and emit a prioritized plan of prefetch targets that the simulator
executes within the prefetch window.
"""

from repro.baselines.base import ObservedQuery, Prefetcher, PrefetchTarget
from repro.baselines.extrapolation import (
    EWMAPrefetcher,
    PolynomialPrefetcher,
    StraightLinePrefetcher,
    VelocityPrefetcher,
)
from repro.baselines.hilbert_prefetch import HilbertPrefetcher
from repro.baselines.simple import NoPrefetcher

__all__ = [
    "EWMAPrefetcher",
    "HilbertPrefetcher",
    "NoPrefetcher",
    "ObservedQuery",
    "PolynomialPrefetcher",
    "Prefetcher",
    "PrefetchTarget",
    "StraightLinePrefetcher",
    "VelocityPrefetcher",
]
