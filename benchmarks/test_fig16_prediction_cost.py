"""Figure 16: prediction time per result element vs position in sequence.

The paper runs 50 sequences of 10 queries and shows that the prediction
time per result element *decreases* along the sequence: iterative
candidate pruning shrinks the subgraph that must be traversed.

Direct, not a ``Figure`` registry entry (DESIGN.md §4): the figure's
x-axis is the query's position in its sequence, read from the per-query
records; a stored sweep cell keeps only per-sequence aggregates.
"""

import numpy as np

from repro.analysis import ResultTable
from repro.core import ScoutPrefetcher
from repro.sim import SimulationEngine
from repro.workload import generate_sequences

N_QUERIES = 10
N_SEQUENCES = 12  # the paper runs 50


def _per_index_costs(tissue, tissue_index):
    engine = SimulationEngine(tissue_index)
    sequences = generate_sequences(
        tissue, N_SEQUENCES, seed=16, n_queries=N_QUERIES, volume=80_000.0
    )
    per_index = [[] for _ in range(N_QUERIES)]
    for sequence in sequences:
        metrics = engine.run(sequence, ScoutPrefetcher(tissue))
        for record in metrics.records:
            if record.n_result_objects:
                per_index[record.index].append(
                    record.prediction_seconds / record.n_result_objects
                )
    return [float(np.mean(v)) * 1e6 if v else 0.0 for v in per_index]


def test_fig16_prediction_cost_decreases(tissue, tissue_index):
    costs = _per_index_costs(tissue, tissue_index)
    table = ResultTable(
        "Fig 16 -- prediction time per result element [µs, simulated]",
        [str(i + 1) for i in range(N_QUERIES)],
        figure_id="fig16",
        precision=3,
    )
    table.add_row("scout", costs)
    table.print()
    # The tail of the sequence is cheaper per element than the head.
    head = np.mean(costs[:3])
    tail = np.mean(costs[-3:])
    assert tail <= head * 1.05
