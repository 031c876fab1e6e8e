"""The paper's microbenchmark registry (Figure 10).

Each microbenchmark is a query-template with the parameters set by the
BBP neuroscientists: number of queries per sequence, query volume,
aspect ratio (cube or view frustum), gap distance and prefetch-window
ratio ``r = u/d`` (analysis time over data-retrieval time; §7.2).

The volumes are the paper's absolute µm³ values; they apply directly
because the synthetic tissue is rescaled to a paper-like density
(see :mod:`repro.datagen.neuron`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datagen.dataset import Dataset
from repro.workload.sequence import QuerySequence, generate_sequences

__all__ = [
    "MICROBENCHMARKS",
    "MicrobenchmarkSpec",
    "microbenchmark",
    "microbenchmark_names",
]


@dataclass(frozen=True)
class MicrobenchmarkSpec:
    """One row of the paper's Figure 10."""

    name: str
    label: str
    n_queries: int
    volume: float
    aspect: str
    gap: float
    window_ratio: float

    def generate(self, dataset: Dataset, n_sequences: int, seed: int) -> list[QuerySequence]:
        """Instantiate the benchmark's sequences on a dataset."""
        return generate_sequences(
            dataset,
            n_sequences=n_sequences,
            seed=seed,
            n_queries=self.n_queries,
            volume=self.volume,
            gap=self.gap,
            aspect=self.aspect,
            window_ratio=self.window_ratio,
        )

    @property
    def has_gaps(self) -> bool:
        return self.gap > 0


#: Figure 10, row by row.  Note the paper's table prints the two
#: with-gap visualization rows with ratios 1.2 (high quality) and 1.6
#: (low quality) -- the reverse of the no-gap rows; we reproduce the
#: table as printed.
MICROBENCHMARKS: dict[str, MicrobenchmarkSpec] = {
    spec.name: spec
    for spec in [
        MicrobenchmarkSpec(
            name="adhoc_stat",
            label="Ad-hoc Queries (Stat. Analysis)",
            n_queries=25,
            volume=80_000.0,
            aspect="cube",
            gap=0.0,
            window_ratio=0.8,
        ),
        MicrobenchmarkSpec(
            name="adhoc_pattern",
            label="Ad-hoc Queries (Pattern Matching)",
            n_queries=25,
            volume=80_000.0,
            aspect="cube",
            gap=0.0,
            window_ratio=1.4,
        ),
        MicrobenchmarkSpec(
            name="model_building",
            label="Model Building",
            n_queries=35,
            volume=20_000.0,
            aspect="cube",
            gap=0.0,
            window_ratio=2.0,
        ),
        MicrobenchmarkSpec(
            name="vis_low",
            label="Visualization (Low Quality)",
            n_queries=65,
            volume=30_000.0,
            aspect="frustum",
            gap=0.0,
            window_ratio=1.2,
        ),
        MicrobenchmarkSpec(
            name="vis_high",
            label="Visualization (High Quality)",
            n_queries=65,
            volume=30_000.0,
            aspect="frustum",
            gap=0.0,
            window_ratio=1.6,
        ),
        MicrobenchmarkSpec(
            name="vis_gaps_high",
            label="Visualization with Gaps (High Quality)",
            n_queries=65,
            volume=30_000.0,
            aspect="frustum",
            gap=25.0,
            window_ratio=1.2,
        ),
        MicrobenchmarkSpec(
            name="vis_gaps_low",
            label="Visualization with Gaps (Low Quality)",
            n_queries=65,
            volume=30_000.0,
            aspect="frustum",
            gap=25.0,
            window_ratio=1.6,
        ),
    ]
}


def microbenchmark(name: str) -> MicrobenchmarkSpec:
    """Look up a Figure-10 microbenchmark by short name."""
    try:
        return MICROBENCHMARKS[name]
    except KeyError:
        known = ", ".join(sorted(MICROBENCHMARKS))
        raise KeyError(f"unknown microbenchmark {name!r}; known: {known}") from None


def microbenchmark_names(with_gaps: bool | None = None) -> list[str]:
    """Names in Figure-10 order, optionally filtered by gap presence."""
    names = list(MICROBENCHMARKS)
    if with_gaps is None:
        return names
    return [n for n in names if MICROBENCHMARKS[n].has_gaps == with_gaps]
