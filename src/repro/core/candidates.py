"""Iterative candidate pruning (paper §4.3).

Every query result contains many structures; the user follows exactly
one.  The tracker exploits the defining property of guided sequences:
the guiding structure intersects *every* query.  Structures that exit
the previous query and enter the current one stay candidates; everything
else is pruned.  After a handful of queries the candidate set typically
collapses to the one structure followed ("oftentimes identified after
six queries").  If every candidate disappears -- the user abandoned the
structure -- the tracker resets to all structures of the latest result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ScoutConfig
from repro.core.exits import split_entries_exits_grouped
from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB
from repro.graph.spatial_graph import SpatialGraph
from repro.graph.traversal import (
    Crossing,
    refine_crossing_direction,
    region_crossings_grouped,
)

__all__ = ["CandidateTrack", "CandidateTracker"]


@dataclass
class CandidateTrack:
    """One structure the user may be following."""

    objects: frozenset[int]
    exits: list[Crossing]
    entries: list[Crossing] = field(default_factory=list)
    age: int = 0

    @property
    def has_exits(self) -> bool:
        return bool(self.exits)


class CandidateTracker:
    """Maintains the candidate set across a guided query sequence."""

    def __init__(self, config: ScoutConfig | None = None) -> None:
        self.config = config or ScoutConfig()
        self.tracks: list[CandidateTrack] = []
        self.resets = 0
        self.last_traversal_work = 0
        self._history_sizes: list[int] = []

    def reset(self) -> None:
        """Forget all candidates (start of a new sequence)."""
        self.tracks = []
        self.resets = 0
        self.last_traversal_work = 0
        self._history_sizes = []

    @property
    def candidate_sizes(self) -> list[int]:
        """Candidate-set size after each update (for Fig 16-style analysis)."""
        return list(self._history_sizes)

    # -- matching helpers ---------------------------------------------------------

    @staticmethod
    def _object_overlap(track: CandidateTrack, component: set[int]) -> bool:
        return not track.objects.isdisjoint(component)

    @staticmethod
    def _proximity_match(
        track: CandidateTrack,
        entries: list[Crossing],
        tolerance: float,
    ) -> bool:
        """Does any entry continue one of the track's exits?

        An entry matches when it lies within ``tolerance`` of the ray
        shot from a track exit along the exit direction (the linear
        extrapolation of §4.4), at a non-negative travel distance.
        """
        for exit_crossing in track.exits:
            origin = exit_crossing.point
            direction = exit_crossing.direction
            for entry in entries:
                rel = entry.point - origin
                along = float(rel @ direction)
                if along < -tolerance:
                    continue
                lateral = rel - along * direction
                if float(np.linalg.norm(lateral)) <= tolerance:
                    return True
        return False

    # -- the pruning step ---------------------------------------------------------

    def update(
        self,
        dataset: Dataset,
        graph: SpatialGraph,
        region: AABB,
        movement: np.ndarray | None,
    ) -> list[CandidateTrack]:
        """Ingest the latest query's graph and prune the candidate set.

        ``movement`` is the displacement from the previous query center
        (``None`` for the first query).  Returns the new tracks.
        """
        side = float(np.cbrt(max(region.volume, 1e-30)))
        tolerance = self.config.match_distance_factor * side

        components = graph.connected_components()
        traversal_work = 0

        # One vectorized clipping pass extracts every component's
        # boundary crossings; the per-component loop below only does the
        # (cheap) candidate bookkeeping.
        component_ids = [
            np.fromiter(component, dtype=np.int64) for component in components
        ]
        all_crossings = region_crossings_grouped(dataset, component_ids, region)

        # Tracks travel with their component's id array: refinement
        # below reads the objects in that (set-iteration) order.
        new_tracks: list[tuple[CandidateTrack, np.ndarray]] = []
        unmatched: list[tuple[CandidateTrack, np.ndarray]] = []
        all_splits = split_entries_exits_grouped(all_crossings, region.center, movement)
        for component, object_ids, (entries, exits) in zip(components, component_ids, all_splits):
            track = CandidateTrack(frozenset(component), exits, entries)

            if not self.tracks:
                # First query (or fresh reset state): every structure
                # that leaves the query region is a candidate.
                if track.has_exits:
                    new_tracks.append((track, object_ids))
                    traversal_work += len(component)
                continue

            matched = any(
                self._object_overlap(old, component)
                or self._proximity_match(old, entries, tolerance)
                for old in self.tracks
            )
            if matched:
                track.age = 1 + max(
                    (old.age for old in self.tracks if self._object_overlap(old, component)),
                    default=0,
                )
                new_tracks.append((track, object_ids))
                traversal_work += len(component)
            else:
                unmatched.append((track, object_ids))

        if self.tracks and not new_tracks and self.config.reset_on_no_match:
            # The user abandoned the structure: the candidate set again
            # contains all structures of the last range query result.
            self.resets += 1
            new_tracks = [pair for pair in unmatched if pair[0].has_exits]
            traversal_work += sum(len(track.objects) for track, _ in new_tracks)

        # Keep only candidates that can predict something.
        with_exits = [pair for pair in new_tracks if pair[0].has_exits]
        if with_exits:
            new_tracks = with_exits

        # Smooth exit directions over the structure's trailing window
        # so the linear extrapolation follows the fiber's local trend
        # rather than the last segment's jitter.  Only the next update's
        # proximity match and the planner read them, and both see
        # survivors only: pruned components are never refined.
        for track, object_ids in new_tracks:
            track.exits = [
                refine_crossing_direction(dataset, object_ids, e, radius=side * 0.3)
                for e in track.exits
            ]
        new_tracks = [track for track, _ in new_tracks]

        self.tracks = new_tracks
        self.last_traversal_work = traversal_work
        self._history_sizes.append(len(new_tracks))
        return new_tracks

    # -- aggregate views ---------------------------------------------------------

    def all_exits(self) -> list[tuple[CandidateTrack, Crossing]]:
        """Every (track, exit) pair of the current candidate set."""
        return [(track, crossing) for track in self.tracks for crossing in track.exits]
