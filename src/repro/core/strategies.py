"""Deep and broad prefetching strategies (paper §5.2).

With multiple candidate structures, SCOUT must decide where to spend
the prefetch window:

- **Deep** (§5.2.1): pick one candidate at random and spend the whole
  window on it.  Expected accuracy D/|C| with high variance.
- **Broad** (§5.2.2): split the window equally over all candidates.
  Same expected accuracy, much lower variance -- the default.

Broad prefetching with many exits would issue many small queries; the
number of locations is limited to ``d`` by k-means clustering the exit
locations and picking a random exit per cluster.  Exits whose predicted
locations nearly coincide are merged so overlapping regions are not
prefetched twice (the R1 ∪ R2 expansion of §5.2.2).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import PrefetchTarget
from repro.core.candidates import CandidateTracker
from repro.core.config import ScoutConfig
from repro.core.kmeans import kmeans
from repro.graph.traversal import Crossing
from repro.util import norm

__all__ = ["plan_targets"]

#: Maximum prefetch locations ``d`` of the broad strategy; more exits
#: are clustered with k-means and one exit is picked per cluster (§5.2.2).
MAX_PREFETCH_LOCATIONS = 4


def _merge_close_targets(
    targets: list[PrefetchTarget], merge_distance: float
) -> list[PrefetchTarget]:
    """Merge targets whose anchors nearly coincide, summing their shares."""
    merged: list[PrefetchTarget] = []
    for target in targets:
        for i, existing in enumerate(merged):
            if norm(existing.anchor - target.anchor) <= merge_distance:
                combined_direction = (
                    existing.direction * existing.share + target.direction * target.share
                )
                merged[i] = PrefetchTarget(
                    anchor=(existing.anchor * existing.share + target.anchor * target.share)
                    / (existing.share + target.share),
                    direction=combined_direction,
                    share=existing.share + target.share,
                )
                break
        else:
            merged.append(target)
    return merged


def _target_from_exit(crossing: Crossing, gap: float, share: float) -> PrefetchTarget:
    """Prefetch target at the linear extrapolation of an exit (§4.4, §5.3)."""
    return PrefetchTarget(
        anchor=crossing.extrapolate(gap),
        direction=crossing.direction,
        share=share,
    )


def plan_targets(
    tracker: CandidateTracker,
    config: ScoutConfig,
    rng: np.random.Generator,
    side: float,
    gap: float,
) -> list[PrefetchTarget]:
    """Turn the candidate set into prioritized prefetch targets."""
    pairs = tracker.all_exits()
    if not pairs:
        return []
    crossings = [crossing for _, crossing in pairs]

    if config.strategy == "deep":
        chosen = crossings[int(rng.integers(len(crossings)))]
        return [_target_from_exit(chosen, gap, 1.0)]

    # Broad strategy: every exit gets an equal slice, clustered down to
    # at most ``MAX_PREFETCH_LOCATIONS`` locations.
    if len(crossings) > MAX_PREFETCH_LOCATIONS:
        points = np.array([c.point for c in crossings])
        _, labels = kmeans(points, MAX_PREFETCH_LOCATIONS, rng)
        selected: list[Crossing] = []
        for cluster in range(MAX_PREFETCH_LOCATIONS):
            members = [c for c, label in zip(crossings, labels) if label == cluster]
            if members:
                selected.append(members[int(rng.integers(len(members)))])
        crossings = selected

    share = 1.0 / len(crossings)
    targets = [_target_from_exit(crossing, gap, share) for crossing in crossings]
    return _merge_close_targets(targets, merge_distance=side * 0.5)
