"""SCOUT-OPT: index-assisted optimizations (paper §6).

SCOUT-OPT pairs SCOUT with the FLAT index, whose ordered retrieval and
neighbourhood information make two optimizations possible.  Both are
modelled here without index machinery of their own:

- **Sparse graph construction** (§6.2) is a cost rule.  With pages at
  the previous query's exit locations retrieved first, the graph grows
  outward from them, so only the subgraph *reachable from the candidate
  entries* is built and traversed, and prediction finishes while the
  remaining result pages stream in.  The build is therefore overlapped
  with I/O and not charged; only the candidate traversal is.  Memory
  drops from ~24 % of the result footprint to ~6 % (§8.2), which
  :attr:`ScoutOptPrefetcher.last_graph_memory_bytes` reports.
- **Gap traversal** (§6.3): instead of blind linear extrapolation across
  a gap, SCOUT-OPT walks the candidate structure *through* the gap
  region, following its bends and bifurcations: each exit repeatedly
  probes a small box ahead of itself (one batched
  :meth:`~repro.index.base.SpatialIndex.query_many` call per step for
  all exits) and turns with the objects it finds, under an I/O budget
  of 10 % of the last query's pages.  The probed pages are prediction
  I/O charged to the prefetch window.

In no-gap workloads SCOUT-OPT and SCOUT predict identically (§7.1
footnote: "In the absence of gaps SCOUT and SCOUT-OPT have the same
performance").
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ObservedQuery, PrefetchTarget
from repro.core.config import SIM_SECONDS_PER_TRAVERSAL_UNIT, ScoutConfig
from repro.core.exits import estimate_gap
from repro.core.scout import ScoutPrefetcher
from repro.core.strategies import plan_targets
from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB
from repro.index.flat import FlatIndex
from repro.util import dot, norm

__all__ = ["ScoutOptPrefetcher"]

_EPS = 1e-9

#: Gap traversal I/O budget as a fraction of the last query's pages
#: (§7.4.6 uses 10 %).
GAP_IO_BUDGET_FRACTION = 0.10


class ScoutOptPrefetcher(ScoutPrefetcher):
    """SCOUT plus sparse construction and gap traversal over FLAT."""

    name = "scout-opt"

    def __init__(
        self,
        dataset: Dataset,
        index: FlatIndex,
        config: ScoutConfig | None = None,
    ) -> None:
        if not isinstance(index, FlatIndex):
            raise TypeError(f"SCOUT-OPT runs over a FlatIndex; got {type(index).__name__}")
        super().__init__(dataset, config)
        self.index = index
        self._pending_gap_pages: list[int] = []
        self._gap_targets: list[PrefetchTarget] = []
        self.total_gap_pages = 0

    # -- sparse construction ------------------------------------------------------

    def observe(self, observed: ObservedQuery) -> None:
        self._pending_gap_pages = []
        self._gap_targets = []
        super().observe(observed)
        # Ordered retrieval lets prediction overlap with result I/O; the
        # residual charge is only the final traversal of the candidate
        # subgraph (§6.2: "the prediction process is already finished
        # once the query result is retrieved").
        self._last_prediction_cost = (
            SIM_SECONDS_PER_TRAVERSAL_UNIT * self.tracker.last_traversal_work
        )
        self._last_build_cost = 0.0  # overlapped with result retrieval (§6.2)

        gap = estimate_gap(self._centers, self._last_side)
        if gap > self._last_side * 0.05:
            self._prepare_gap_traversal(observed, gap)

    @property
    def last_graph_memory_bytes(self) -> int:
        """Memory of the retained graph, computed when read.

        Sparse construction bounds the retained graph to the subgraph
        reachable from the candidate structures; §8.2 reports this at
        ~6 % of the result footprint versus ~24 % for the full graph.
        """
        report = self.last_build_report
        if report is None or not self.tracker.tracks:
            return super().last_graph_memory_bytes
        reachable: set[int] = set()
        for track in self.tracker.tracks:
            reachable |= report.graph.reachable_from(track.objects)
        return report.graph.subgraph(reachable).memory_bytes()

    # -- gap traversal ------------------------------------------------------------

    def _prepare_gap_traversal(self, observed: ObservedQuery, gap: float) -> None:
        """Walk each candidate exit through the gap, probing ahead."""
        pages_of_last_query = self.index.pages_for_region(observed.bounds)
        budget_pages = max(1, int(GAP_IO_BUDGET_FRACTION * len(pages_of_last_query)))

        used_pages: list[int] = []
        targets: list[PrefetchTarget] = []
        exits = [crossing for _, crossing in self.tracker.all_exits()]
        if not exits:
            return
        per_exit_budget = max(1, budget_pages // len(exits))
        share = 1.0 / len(exits)
        walks = self._traverse_gaps(
            [crossing.point for crossing in exits],
            [crossing.direction for crossing in exits],
            gap,
            per_exit_budget,
        )
        for point, direction, pages in walks:
            used_pages.extend(pages)
            targets.append(PrefetchTarget(anchor=point, direction=direction, share=share))
        self._pending_gap_pages = used_pages
        self._gap_targets = targets
        self.total_gap_pages += len(used_pages)

    def _traverse_gaps(
        self,
        starts: list[np.ndarray],
        directions: list[np.ndarray],
        gap: float,
        page_budget: int,
    ) -> list[tuple[np.ndarray, np.ndarray, list[int]]]:
        """Walk every exit's gap in lockstep, batching the index probes.

        Each walk probes a small region ahead of its current point,
        re-estimates the local structure direction from the objects
        found there, and advances; when its page budget runs out the
        remaining distance falls back to linear extrapolation (§6.3's
        backup mechanism).  Walks are independent, so the per-step
        probes of all still-active walks are resolved through one
        batched :meth:`~repro.index.base.SpatialIndex.query_many` call
        -- results are identical to running each walk on its own.
        """
        probe_side = self._last_side * 0.4

        walks = []
        for start, direction in zip(starts, directions):
            point = np.asarray(start, dtype=np.float64).copy()
            heading = np.asarray(direction, dtype=np.float64).copy()
            length = norm(heading)
            degenerate = length < _EPS
            walks.append(
                {
                    "point": point,
                    "heading": heading if degenerate else heading / length,
                    "pages": [],
                    "travelled": 0.0,
                    "degenerate": degenerate,
                    "active": not degenerate and 0.0 < gap and 0 < page_budget,
                }
            )

        while True:
            active = [walk for walk in walks if walk["active"]]
            if not active:
                break
            probes = [
                AABB.from_center_extent(
                    walk["point"] + walk["heading"] * (probe_side / 2.0), probe_side
                )
                for walk in active
            ]
            for walk, result in zip(active, self.index.query_many(probes)):
                walk["pages"].extend(int(p) for p in result.page_ids)
                if result.n_objects == 0:
                    walk["active"] = False
                    continue
                new_heading = self._local_direction(result.object_ids, walk["heading"])
                if new_heading is None:
                    walk["active"] = False
                    continue
                advance = probe_side * 0.5
                walk["point"] = walk["point"] + new_heading * advance
                walk["heading"] = new_heading
                walk["travelled"] += advance
                if not (walk["travelled"] < gap and len(walk["pages"]) < page_budget):
                    walk["active"] = False

        out = []
        for walk in walks:
            if walk["degenerate"]:
                out.append((walk["point"], walk["heading"], walk["pages"]))
                continue
            remaining = max(0.0, gap - walk["travelled"])
            out.append(
                (
                    walk["point"] + walk["heading"] * remaining,
                    walk["heading"],
                    walk["pages"],
                )
            )
        return out

    def _local_direction(self, object_ids: np.ndarray, heading: np.ndarray) -> np.ndarray | None:
        """Average direction of nearby objects aligned with the heading."""
        p0 = self.dataset.p0[object_ids]
        p1 = self.dataset.p1[object_ids]
        deltas = p1 - p0
        norms = norm(deltas)
        valid = norms > _EPS
        if not np.any(valid):
            return None
        directions = deltas[valid] / norms[valid, None]
        alignment = dot(directions, heading)
        # Orient every segment with the travel direction.
        directions = directions * np.sign(alignment)[:, None]
        aligned = np.abs(alignment) > 0.2
        if not np.any(aligned):
            return None
        # Each aligned direction has a dot product > 0.2 with the unit
        # heading, so their mean cannot vanish.
        mean_direction = directions[aligned].mean(axis=0)
        return mean_direction / norm(mean_direction)

    # -- Prefetcher API ------------------------------------------------------------

    def plan(self) -> list[PrefetchTarget]:
        if self._gap_targets:
            return self._gap_targets
        gap = estimate_gap(self._centers, self._last_side)
        return plan_targets(self.tracker, self.config, self._rng, self._last_side, gap)

    def gap_io_pages(self) -> list[int]:
        pages = self._pending_gap_pages
        self._pending_gap_pages = []
        return pages

    def begin_sequence(self) -> None:
        super().begin_sequence()
        self._pending_gap_pages = []
        self._gap_targets = []
