"""Figure 14: response-time breakdown vs dataset density.

Splits SCOUT's total per-sequence time into graph building, prediction
(traversal) and residual I/O while the tissue density grows.  Expected
shape: graph building stays a modest share (~15 % in the paper),
prediction a small one (<= 6 %), with no relative growth as the result
sizes increase.
"""

import pytest

from repro.analysis import ResultTable
from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.workload import generate_sequences
from repro.workload.sweeps import SENSITIVITY_DEFAULTS as D

from conftest import BENCH_FANOUT
from helpers import n_sequences, run, scout_only

NEURON_COUNTS = [40, 60, 80, 100]


def _breakdown():
    rows = {"residual-io": [], "graph-build": [], "prediction": []}
    shares = []
    for n_neurons in NEURON_COUNTS:
        tissue = make_neuron_tissue(n_neurons=n_neurons, seed=14, extent=700.0)
        index = FlatIndex(tissue, fanout=BENCH_FANOUT)
        seqs = generate_sequences(
            tissue, max(3, n_sequences() // 2), seed=14,
            n_queries=D.n_queries, volume=D.volume, window_ratio=D.window_ratio,
        )
        result = run(index, seqs, scout_only(tissue))
        metrics = result.metrics
        residual = metrics.response_seconds
        build = metrics.graph_build_seconds
        predict = metrics.prediction_seconds - metrics.graph_build_seconds
        rows["residual-io"].append(residual)
        rows["graph-build"].append(build)
        rows["prediction"].append(predict)
        total = residual + build + predict
        shares.append((build / total, predict / total))
    return rows, shares


def test_fig14_time_breakdown():
    rows, shares = _breakdown()
    table = ResultTable(
        "Fig 14 -- response time breakdown [s, simulated]",
        [f"{n}n" for n in NEURON_COUNTS],
        figure_id="fig14",
        precision=3,
    )
    for label, cells in rows.items():
        table.add_row(label, cells)
    table.print()
    share_table = ResultTable(
        "Fig 14 -- graph-build / prediction share of response [%]",
        [f"{n}n" for n in NEURON_COUNTS],
    )
    share_table.add_row("graph-build", [100 * b for b, _ in shares])
    share_table.add_row("prediction", [100 * p for _, p in shares])
    share_table.print()
    # Modeling cost must not dominate, and its share must not grow
    # systematically with density (the paper's headline observation).
    for build_share, predict_share in shares:
        assert build_share < 0.45
        assert predict_share < 0.20
    first_total = shares[0][0] + shares[0][1]
    last_total = shares[-1][0] + shares[-1][1]
    assert last_total < first_total + 0.15
