"""Figure 17: applicability across scientific and non-scientific datasets.

Runs the comparison on the lung airway mesh, the arterial tree and the
road network, with query sizes defined relative to the dataset volume
as in §8.4 (small: 5e-7 of the dataset volume; large: 5e-4).  Expected
shapes: (a) on small queries SCOUT leads on lung and roads, but the
*smooth* arterial tree favours EWMA; (b) on large queries SCOUT leads
everywhere (bends and bifurcations defeat extrapolation).
"""

import pytest

from repro.analysis import ResultTable
from repro.workload import generate_sequences
from repro.workload.sweeps import fig17_query_volume

from helpers import hit_pct, n_sequences, run, standard_prefetchers

N_QUERIES = 25


def _grid(datasets):
    # Query volumes come from the shared Fig-17 sizing in
    # repro.workload.sweeps (§8.4 fractions with a small-dataset floor),
    # the same function the `sweep --figure 17` grid is built from, so
    # this harness and the sweep engine can never drift apart.
    tables = {}
    results = {}
    for label in ("small", "large"):
        table = ResultTable(
            f"Fig 17{'a' if label == 'small' else 'b'} -- hit rate, {label} queries [%]",
            [name for name, _, _ in datasets],
            figure_id="fig17a" if label == "small" else "fig17b",
        )
        for prefetcher_name in ("ewma-0.3", "straight-line", "hilbert", "scout"):
            cells = []
            for dataset_name, dataset, index in datasets:
                volume = fig17_query_volume(dataset, label)
                sequences = generate_sequences(
                    dataset, max(3, n_sequences() // 2), seed=17,
                    n_queries=N_QUERIES, volume=volume,
                )
                prefetcher = standard_prefetchers(dataset, index)[prefetcher_name]
                cells.append(hit_pct(run(index, sequences, prefetcher)))
            table.add_row(prefetcher_name, cells)
            results[(label, prefetcher_name)] = cells
        tables[label] = table
        table.print()
    return results


def test_fig17_applicability(
    lung, lung_index, arterial, arterial_index, roads, roads_index
):
    datasets = [
        ("lung", lung, lung_index),
        ("arterial", arterial, arterial_index),
        ("roads", roads, roads_index),
    ]
    results = _grid(datasets)

    # (a) small queries: the smooth arterial tree favours extrapolation;
    # SCOUT must stay competitive (paper: EWMA 96% vs SCOUT 90%).
    arterial_ewma = results[("small", "ewma-0.3")][1]
    arterial_scout = results[("small", "scout")][1]
    assert arterial_scout > arterial_ewma - 25.0

    # (b) large queries: SCOUT at or near the top on every dataset.
    # At synthetic scale the floored "small" volume is already sizeable,
    # which compresses the small/large contrast (see EXPERIMENTS.md);
    # SCOUT must win on roads outright and stay competitive elsewhere.
    roads_scout = results[("large", "scout")][2]
    roads_best_other = max(
        results[("large", p)][2] for p in ("ewma-0.3", "straight-line", "hilbert")
    )
    assert roads_scout > roads_best_other
    for i, name in enumerate(["lung", "arterial"]):
        scout = results[("large", "scout")][i]
        best_other = max(
            results[("large", p)][i] for p in ("ewma-0.3", "straight-line", "hilbert")
        )
        assert scout > best_other - 20.0, (name, scout, best_other)
