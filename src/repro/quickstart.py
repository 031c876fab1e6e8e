"""One-call end-to-end experiment, used by the README and smoke tests."""

from __future__ import annotations

from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.sim import ExperimentResult, PrefetcherSpec, run_experiment
from repro.workload import microbenchmark

__all__ = ["PREFETCHER_NAMES", "default_prefetcher", "quick_experiment"]

#: The prefetchers ``run`` and ``serve`` offer by name (their
#: ``--prefetcher`` choices): a subset of the sweep runner's kinds, which
#: keeps its test-only fault-injection kinds unreachable from the CLI.
PREFETCHER_NAMES = ("scout", "scout-opt", "ewma", "straight-line", "hilbert", "none")


def default_prefetcher(name: str) -> PrefetcherSpec:
    """The named prefetcher with default parameters, as a runner spec."""
    if name not in PREFETCHER_NAMES:
        known = ", ".join(sorted(PREFETCHER_NAMES))
        raise ValueError(f"unknown prefetcher {name!r}; known: {known}")
    return PrefetcherSpec(name)


def quick_experiment(
    prefetcher: str = "scout",
    benchmark: str = "adhoc_stat",
    n_neurons: int = 40,
    n_sequences: int = 5,
    seed: int = 7,
) -> ExperimentResult:
    """Run one microbenchmark cell on a small synthetic tissue.

    ``prefetcher`` is one of :data:`PREFETCHER_NAMES`.
    """
    prefetcher_spec = default_prefetcher(prefetcher)
    dataset = make_neuron_tissue(n_neurons=n_neurons, seed=seed)
    index = FlatIndex(dataset, fanout=16)
    spec = microbenchmark(benchmark)
    sequences = spec.generate(dataset, n_sequences=n_sequences, seed=seed)
    return run_experiment(index, sequences, prefetcher_spec.build(dataset, index))
