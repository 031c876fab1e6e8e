"""The prefetcher that never prefetches: the speedup denominator.

``NoPrefetcher`` is the paper's reference point ("compared to no
prefetching at all").  The upper bound at the other end, a prefetcher
that reads the true next query, is a test oracle
(``tests/oracles/baselines.py``).
"""

from __future__ import annotations

from repro.baselines.base import ObservedQuery, Prefetcher, PrefetchTarget

__all__ = ["NoPrefetcher"]


class NoPrefetcher(Prefetcher):
    """Never prefetches; every page is residual I/O."""

    name = "none"

    def observe(self, observed: ObservedQuery) -> None:
        pass

    def plan(self) -> list[PrefetchTarget]:
        return []
