"""Figure 13: sensitivity of SCOUT's accuracy to workload parameters.

Six panels, each varying one parameter around the §7.4 defaults
(25-query sequences, 80k µm³ cubes, window ratio 1).  Expected shapes:
(a) accuracy falls with query volume; (b) roughly flat with density;
(c) rises with sequence length; (d) rises steeply with window ratio;
(e) robust at fine grid resolutions; (f) falls with gap distance, with
SCOUT-OPT above SCOUT.

Each panel is expressed as a declarative :class:`ExperimentMatrix`
(:func:`repro.workload.sweeps.fig13_matrix`) and executed through the
parallel-capable orchestrator -- the same grid the ``scout-repro
sweep`` CLI runs -- then pivoted into its table with
:func:`repro.analysis.sweep_table`.
"""

from repro.analysis import sweep_table
from repro.workload.sweeps import fig13_axes, fig13_axis_value

from helpers import fig13_panel, hit_pct, n_sequences, run_cells

AXES = fig13_axes()


def _panel_table(panel, results, title, columns_format=str):
    table = sweep_table(
        title,
        results,
        column_of=lambda r: columns_format(fig13_axis_value(panel, r.spec)),
        row_of=lambda r: r.prefetcher_kind,
        value_of=hit_pct,
        figure_id=f"fig13{panel}",
    )
    table.print()
    return table


def test_fig13a_query_volume():
    matrix = fig13_panel("a")
    results = run_cells(matrix)
    table = _panel_table(
        "a",
        results,
        "Fig 13a -- accuracy vs query volume [hit %]",
        columns_format=lambda v: f"{int(v / 1000)}k",
    )
    cells = table.row_values("scout")
    # Accuracy decreases from the smallest to the largest volume.
    assert cells[-1] < cells[0]


def test_fig13b_density():
    matrix = fig13_panel("b", sequences_per_cell=max(3, n_sequences() // 2))
    results = run_cells(matrix)
    table = _panel_table(
        "b",
        results,
        "Fig 13b -- accuracy vs dataset density [hit %]",
        columns_format=lambda n: f"{n}n",
    )
    cells = table.row_values("scout")
    # Roughly flat: no collapse as density grows.
    assert min(cells) > max(cells) - 25.0
    assert min(cells) > 50.0


def test_fig13c_sequence_length():
    matrix = fig13_panel("c")
    results = run_cells(matrix)
    table = _panel_table(
        "c", results, "Fig 13c -- accuracy vs sequence length [hit %]"
    )
    cells = table.row_values("scout")
    # Iterative pruning pays off: long sequences beat the shortest one.
    assert cells[-1] > cells[0]


def test_fig13d_window_ratio():
    matrix = fig13_panel("d")
    results = run_cells(matrix)
    table = _panel_table(
        "d",
        results,
        "Fig 13d -- accuracy vs prefetch window ratio [hit %]",
        columns_format=lambda r: f"{r:g}",
    )
    cells = table.row_values("scout")
    # Strong rise with the window: the paper reports 29% -> 88%.
    assert cells[0] < cells[-1] - 20.0
    assert cells == sorted(cells) or cells[1] <= cells[-1]


def test_fig13e_grid_resolution():
    matrix = fig13_panel("e")
    results = run_cells(matrix)
    table = _panel_table(
        "e", results, "Fig 13e -- accuracy vs grid resolution [hit %]"
    )
    cells = table.row_values("scout")
    # The fine-resolution plateau (32768 vs 4096) holds within noise.
    assert abs(cells[0] - cells[1]) < 12.0


def test_fig13f_gap_distance():
    matrix = fig13_panel("f")
    results = run_cells(matrix)
    table = _panel_table(
        "f",
        results,
        "Fig 13f -- accuracy vs gap distance [hit %]",
        columns_format=lambda g: f"{g:g}",
    )
    scout_cells = table.row_values("scout")
    opt_cells = table.row_values("scout-opt")
    # SCOUT-OPT's gap traversal keeps it on top across gap distances.
    assert sum(opt_cells) >= sum(scout_cells)
