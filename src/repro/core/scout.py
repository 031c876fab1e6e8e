"""The SCOUT prefetcher (paper §4-§5).

Per observed query, SCOUT:

1. builds the approximate proximity graph of the result content
   (grid hashing, or the dataset's explicit mesh adjacency);
2. updates the candidate set by iterative pruning (§4.3);
3. finds the exit locations of the surviving candidates and linearly
   extrapolates them past the estimated gap (§4.4, §5.3);
4. emits prefetch targets according to the deep or broad strategy
   (§5.2); the simulator expands them into incremental prefetch
   queries (§5.1).

The prediction's simulated CPU cost (graph build + traversal) is charged
against the prefetch window, matching the Figure-2 timeline.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ObservedQuery, Prefetcher, PrefetchTarget
from repro.core.candidates import CandidateTracker
from repro.core.config import (
    SIM_SECONDS_PER_BUILD_UNIT,
    SIM_SECONDS_PER_TRAVERSAL_UNIT,
    ScoutConfig,
)
from repro.core.exits import estimate_gap
from repro.core.strategies import plan_targets
from repro.datagen.dataset import Dataset
from repro.graph.builder import build_graph

__all__ = ["ScoutPrefetcher"]

#: Seed of the internal RNG (deep strategy picks, k-means seeding).
RNG_SEED = 0


class ScoutPrefetcher(Prefetcher):
    """Structure-aware prefetching from past query *content*."""

    name = "scout"

    def __init__(self, dataset: Dataset, config: ScoutConfig | None = None) -> None:
        self.dataset = dataset
        self.config = config or ScoutConfig()
        self.tracker = CandidateTracker()
        self._rng = np.random.default_rng(RNG_SEED)
        self._centers: list[np.ndarray] = []
        self._last_side: float = 1.0
        self._last_prediction_cost = 0.0
        self._last_build_cost = 0.0
        # The last graph build, for the memory accounting of §8.2.
        self.last_build_report = None

    # -- Prefetcher API -------------------------------------------------------

    def begin_sequence(self) -> None:
        self.tracker.reset()
        self._centers = []
        self._last_prediction_cost = 0.0
        self._last_build_cost = 0.0
        self.last_build_report = None

    def observe(self, observed: ObservedQuery) -> None:
        region = observed.bounds
        movement = None
        if self._centers:
            movement = observed.center - self._centers[-1]
        self._centers.append(observed.center)
        self._last_side = observed.side

        report = build_graph(
            self.dataset,
            observed.result_object_ids,
            region,
            resolution=self.config.grid_resolution,
        )
        self.last_build_report = report

        self.tracker.update(self.dataset, report.graph, region, movement)

        self._last_build_cost = SIM_SECONDS_PER_BUILD_UNIT * report.work_units
        self._last_prediction_cost = (
            self._last_build_cost
            + SIM_SECONDS_PER_TRAVERSAL_UNIT * self.tracker.last_traversal_work
        )

    def plan(self) -> list[PrefetchTarget]:
        gap = estimate_gap(self._centers, self._last_side)
        return plan_targets(self.tracker, self.config, self._rng, self._last_side, gap)

    def prediction_cost_seconds(self) -> float:
        return self._last_prediction_cost

    def graph_build_cost_seconds(self) -> float:
        return self._last_build_cost

    # -- introspection ----------------------------------------------------------------

    @property
    def last_graph_memory_bytes(self) -> int:
        """Memory of the prediction structures (§8.2 reports ~24 %).

        Computed when read: the accounting walks every adjacency set,
        which the per-query path has no use for.
        """
        report = self.last_build_report
        return 0 if report is None else report.graph.memory_bytes()

    @property
    def n_candidates(self) -> int:
        return len(self.tracker.tracks)
