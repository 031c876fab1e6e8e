"""Figure 3: accuracy of the state-of-the-art vs query volume.

The paper's motivation experiment: EWMA (λ=0.3), Straight Line and
Polynomial (degree 2 and 3) on 25-query sequences over neuron tissue,
with query volumes from 10k to 220k µm³.  Expected shape: modest
absolute accuracy, polynomials below the others (higher degrees
oscillate), and accuracy falling as the volume grows.
"""

import pytest

from repro.analysis import ResultTable
from repro.baselines import EWMAPrefetcher, PolynomialPrefetcher, StraightLinePrefetcher
from repro.workload import generate_sequences

from helpers import hit_pct, n_sequences, run

VOLUMES = [10_000.0, 80_000.0, 150_000.0, 220_000.0]


def _series(tissue, tissue_index):
    prefetchers = {
        "ewma-0.3": EWMAPrefetcher(lam=0.3),
        "straight-line": StraightLinePrefetcher(),
        "poly-2": PolynomialPrefetcher(2),
        "poly-3": PolynomialPrefetcher(3),
    }
    table = ResultTable(
        "Fig 3 -- baseline accuracy vs query volume [cache hit %]",
        [f"{int(v/1000)}k" for v in VOLUMES],
        figure_id="fig3",
    )
    rows = {}
    for name, prefetcher in prefetchers.items():
        cells = []
        for volume in VOLUMES:
            sequences = generate_sequences(
                tissue, n_sequences(), seed=31, n_queries=25, volume=volume
            )
            cells.append(hit_pct(run(tissue_index, sequences, prefetcher)))
        table.add_row(name, cells)
        rows[name] = cells
    table.print()
    return rows


def test_fig03_motivation(tissue, tissue_index):
    rows = _series(tissue, tissue_index)
    # Shape assertions from the paper's reading of the figure:
    # higher-degree polynomials do worse (oscillation) ...
    assert sum(rows["poly-3"]) < sum(rows["poly-2"])
    # ... and accuracy degrades from small to large queries.
    for name in ("ewma-0.3", "straight-line"):
        assert rows[name][-1] < rows[name][0] + 10.0
