"""Figure 10: the microbenchmark parameter table (reproduced verbatim)."""

from repro.analysis import ResultTable
from repro.workload import MICROBENCHMARKS


def _render():
    table = ResultTable(
        "Fig 10 -- microbenchmark parameters",
        ["queries", "volume", "gap", "ratio"],
        precision=1,
    )
    for spec in MICROBENCHMARKS.values():
        table.add_row(
            spec.label[:28],
            [float(spec.n_queries), spec.volume, spec.gap, spec.window_ratio],
        )
    table.print()
    return table


def test_fig10_parameter_table():
    table = _render()
    assert len(table.rows) == 7
    assert table.cell("Model Building", "ratio") == 2.0
