"""The prefetcher that reads the future: an upper bound no online method
beats, for sanity tests and the simulator's window accounting."""

from __future__ import annotations

import numpy as np

from repro.baselines import ObservedQuery, Prefetcher, PrefetchTarget
from repro.workload.sequence import QuerySequence


class OraclePrefetcher(Prefetcher):
    """Prefetches the true next query region of each sequence in turn.

    Built with the sequences it will be run against, in run order: each
    ``begin_sequence`` (one per engine run) moves on to the next one, so
    one instance serves every sequence of ``run_experiment``.
    """

    name = "oracle"

    def __init__(self, sequences: list[QuerySequence]) -> None:
        self._upcoming = iter(sequences)
        self.sequence: QuerySequence | None = None
        self._last_index = -1

    def begin_sequence(self) -> None:
        self.sequence = next(self._upcoming, None)
        if self.sequence is None:
            raise RuntimeError("OraclePrefetcher has no sequence left to read")
        self._last_index = -1

    def observe(self, observed: ObservedQuery) -> None:
        self._last_index = observed.index

    def plan(self) -> list[PrefetchTarget]:
        next_index = self._last_index + 1
        if next_index >= len(self.sequence.queries):
            return []
        upcoming = self.sequence.queries[next_index]
        return [
            PrefetchTarget(
                anchor=upcoming.center,
                direction=np.zeros(3),
                share=1.0,
                regions=(upcoming.bounds,),
            )
        ]
