"""Common helpers for the figure benchmarks."""

from __future__ import annotations

from repro.baselines import (
    EWMAPrefetcher,
    HilbertPrefetcher,
    StraightLinePrefetcher,
)
from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher
from repro.sim import CellResult, ExperimentResult, ParallelRunner, run_experiment
from repro.workload.sweeps import fig13_matrix, scale_factor

#: Sequences per experiment cell (scaled by REPRO_SCALE).  The paper
#: uses 30-50; the default keeps the full suite laptop-sized while
#: remaining statistically stable at page granularity.
BASE_SEQUENCES = 6


def n_sequences() -> int:
    return max(2, int(round(BASE_SEQUENCES * scale_factor())))


def standard_prefetchers(dataset, index) -> dict[str, object]:
    """The comparison set of Figures 11, 12 and 17."""
    return {
        "ewma-0.3": EWMAPrefetcher(lam=0.3),
        "straight-line": StraightLinePrefetcher(),
        "hilbert": HilbertPrefetcher(dataset),
        "scout": ScoutPrefetcher(dataset, ScoutConfig()),
    }


def scout_only(dataset) -> ScoutPrefetcher:
    return ScoutPrefetcher(dataset, ScoutConfig())


def scout_opt(dataset, index) -> ScoutOptPrefetcher:
    return ScoutOptPrefetcher(dataset, index, ScoutConfig())


def hit_pct(result: ExperimentResult | CellResult) -> float:
    return 100.0 * result.metrics.cache_hit_rate


def run(index, sequences, prefetcher) -> ExperimentResult:
    """One cell on prebuilt objects (the single-cell primitive)."""
    return run_experiment(index, sequences, prefetcher)


def run_cells(cells, jobs: int = 1, store=None, resume: bool = True) -> list[CellResult]:
    """Run declarative cells through the orchestrator, in cell order."""
    return ParallelRunner(jobs=jobs, store=store).run(cells, resume=resume).results


def fig13_panel(panel: str, *, sequences_per_cell: int | None = None, **overrides):
    """The Fig-13 panel matrix at benchmark scale (fixture-sized tissue).

    Cells rebuild the same tissue as the session fixtures (``scaled(60)``
    neurons, seed 7, FLAT fanout 16) via the runner's per-process memo,
    so expressing a panel as a matrix costs one extra dataset build for
    the whole benchmark session.
    """
    from conftest import BENCH_FANOUT, SEED, scaled

    return fig13_matrix(
        panel,
        n_neurons=overrides.pop("n_neurons", scaled(60)),
        n_sequences=sequences_per_cell if sequences_per_cell is not None else n_sequences(),
        dataset_seed=SEED,
        fanout=BENCH_FANOUT,
        **overrides,
    )
