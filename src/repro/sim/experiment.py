"""The single-cell experiment primitive.

One *experiment cell* is (dataset, index, workload spec, prefetcher);
its result aggregates the per-sequence metrics the paper plots.
:func:`run_experiment` executes exactly one cell on already-built
objects -- it is the primitive that :mod:`repro.sim.runner` schedules
(serially or across a process pool).  Cells never share engine or
cache state, which is what makes them safe to fan out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import Prefetcher
from repro.index.base import SpatialIndex
from repro.sim.engine import SimulationConfig, SimulationEngine
from repro.sim.metrics import AggregateMetrics, SequenceMetrics, aggregate
from repro.workload.sequence import QuerySequence

__all__ = ["ExperimentResult", "run_experiment"]


@dataclass
class ExperimentResult:
    """Aggregated outcome of one experiment cell."""

    prefetcher_name: str
    metrics: AggregateMetrics
    sequences: list[SequenceMetrics]

    @property
    def cache_hit_rate(self) -> float:
        return self.metrics.cache_hit_rate

    @property
    def speedup(self) -> float:
        return self.metrics.speedup


def run_experiment(
    index: SpatialIndex,
    sequences: list[QuerySequence],
    prefetcher: Prefetcher,
    config: SimulationConfig | None = None,
) -> ExperimentResult:
    """Run one prefetcher over a batch of sequences and aggregate.

    Caches are cold per sequence, as in §7.1 ("After executing each
    sequence of queries, we clear the prefetch cache, the operating
    system cache and the disk buffers").  Pure with respect to its
    arguments aside from the prefetcher's own per-sequence state (reset
    via ``begin_sequence``), so repeated calls with equal inputs yield
    bit-identical metrics -- the property the parallel runner's
    serial-vs-parallel determinism guarantee rests on.
    """
    if not sequences:
        raise ValueError("run_experiment() needs at least one sequence")
    engine = SimulationEngine(index, config)
    per_sequence = [engine.run(sequence, prefetcher) for sequence in sequences]
    return ExperimentResult(
        prefetcher_name=prefetcher.name,
        metrics=aggregate(per_sequence),
        sequences=per_sequence,
    )
