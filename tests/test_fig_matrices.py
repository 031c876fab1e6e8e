"""The evaluation grids as declarative matrices, and their paper shapes.

The contract under test: the matrix builders enumerate exactly the
figure's (benchmark x prefetcher) grid, cells are labelled back to
their Figure-10 rows, and -- the determinism anchor -- running a cell
through the orchestrator produces bit-identical metrics to the direct
path (build tissue, generate sequences, ``run_experiment`` on a fresh
prefetcher) on the same tiny tissue.

``tests/golden/grid_keys.json`` additionally pins all eleven *default*
grids as the CLI sweeps them: every cell key, in order, and the
``--list-cells`` transcript, so plumbing changes between the matrix
builders and ``scout-repro sweep`` cannot silently move a stored cell.

Every :attr:`~repro.workload.figures.Figure.shape` is fed a table that
keeps the paper's reading, one doctored to break it, and one with
blank or missing cells; ``benchmarks/test_figures.py`` runs the same
functions on real bench-scale sweeps.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import ResultTable
from repro.baselines import EWMAPrefetcher, HilbertPrefetcher, StraightLinePrefetcher
from repro.cli import main
from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher
from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.sim import run_cell, run_experiment
from repro.workload import MICROBENCHMARKS, microbenchmark_names
from repro.workload.figures import FIGURES, NOT_EVALUATED
from repro.workload.sweeps import (
    FIG11_PREFETCHERS,
    FIG12_PREFETCHERS,
    FIG13_PANELS,
    FIG17_DATASET_PARAMS,
    FIG17_PANELS,
    chaos_matrix,
    clients_matrix,
    fig3_matrix,
    fig10_matrix,
    fig11_matrix,
    fig12_matrix,
    fig13_axis_value,
    fig13_matrix,
    fig14_matrix,
    fig17_matrix,
    fig17_query_volume,
    microbenchmark_of,
    shards_matrix,
    tiers_matrix,
)

TINY_NEURONS = 6
SEED = 7
FANOUT = 16
SEQUENCES = 2


@pytest.fixture(scope="module")
def tissue():
    return make_neuron_tissue(n_neurons=TINY_NEURONS, seed=SEED)


@pytest.fixture(scope="module")
def tissue_index(tissue):
    return FlatIndex(tissue, fanout=FANOUT)


def tiny(builder, **overrides):
    """``builder`` on the fixtures' tissue (the grids fix seed 7 and fanout 16)."""
    return builder(n_neurons=TINY_NEURONS, n_sequences=SEQUENCES, **overrides)


class TestGridShapes:
    def test_fig10_covers_the_whole_registry(self):
        matrix = tiny(fig10_matrix)
        assert len(matrix) == len(MICROBENCHMARKS)
        assert {cell.prefetcher.kind for cell in matrix} == {"scout"}

    def test_fig11_is_no_gap_benches_by_fig11_prefetchers(self):
        matrix = tiny(fig11_matrix)
        no_gap = microbenchmark_names(with_gaps=False)
        assert len(matrix) == len(no_gap) * len(FIG11_PREFETCHERS)
        benches = {microbenchmark_of(cell.to_dict()) for cell in matrix}
        assert benches == set(no_gap)

    def test_fig12_adds_scout_opt_on_gap_benches(self):
        matrix = tiny(fig12_matrix)
        with_gaps = microbenchmark_names(with_gaps=True)
        assert len(matrix) == len(with_gaps) * len(FIG12_PREFETCHERS)
        kinds = {cell.prefetcher.kind for cell in matrix}
        assert "scout-opt" in kinds
        assert all(cell.workload.gap > 0 for cell in matrix)

    def test_benches_subset_and_validation(self):
        matrix = tiny(fig10_matrix, benches=["adhoc_stat", "model_building"])
        assert len(matrix) == 2
        with pytest.raises(ValueError, match="unknown microbenchmark"):
            tiny(fig10_matrix, benches=["warp_drive"])
        with pytest.raises(ValueError, match="at least one"):
            tiny(fig10_matrix, benches=[])

    def test_cells_label_back_to_their_benchmark(self):
        for cell in tiny(fig11_matrix):
            name = microbenchmark_of(cell.to_dict())
            bench = MICROBENCHMARKS[name]
            assert cell.workload.n_queries == bench.n_queries
            assert cell.workload.window_ratio == bench.window_ratio

    def test_non_benchmark_workload_labels_none(self):
        cell = tiny(fig10_matrix).cells()[0].to_dict()
        cell["workload"]["volume"] = 123_456.0
        assert microbenchmark_of(cell) is None


#: Shrunken Fig-17 dataset parameters for fast grid tests.
TINY_FIG17 = {
    "lung": {"seed": 17, "max_depth": 2},
    "arterial": {"seed": 17, "max_depth": 2},
    "roads": {"seed": 17, "grid_size": 4},
}


class TestFig17Grid:
    def test_covers_datasets_x_fig11_prefetchers(self):
        cells = fig17_matrix("a", datasets=TINY_FIG17, n_sequences=SEQUENCES)
        assert len(cells) == len(TINY_FIG17) * len(FIG11_PREFETCHERS)
        assert {cell.dataset.kind for cell in cells} == set(TINY_FIG17)
        assert {cell.prefetcher.kind for cell in cells} == {
            kind for kind, _ in FIG11_PREFETCHERS
        }
        column_of = FIGURES[17].column_of
        assert {column_of("a", cell.to_dict()) for cell in cells} == set(TINY_FIG17)

    def test_default_grid_names_the_paper_datasets(self):
        assert list(FIG17_DATASET_PARAMS) == ["lung", "arterial", "roads"]

    def test_large_regime_is_fixed_factor_above_small(self):
        small = fig17_matrix("a", datasets=TINY_FIG17, n_sequences=SEQUENCES)
        large = fig17_matrix("b", datasets=TINY_FIG17, n_sequences=SEQUENCES)
        small_volumes = {c.dataset.kind: c.workload.volume for c in small}
        large_volumes = {c.dataset.kind: c.workload.volume for c in large}
        for kind in TINY_FIG17:
            assert large_volumes[kind] == pytest.approx(4.0 * small_volumes[kind])

    def test_volumes_differ_per_dataset(self):
        # Each dataset carries its own query volume (sized from its own
        # extent and density), which is why Fig 17 is a list of cells,
        # not one cross-product matrix.
        cells = fig17_matrix("a", datasets=TINY_FIG17, n_sequences=SEQUENCES)
        volumes = {c.dataset.kind: c.workload.volume for c in cells}
        assert len(set(volumes.values())) == len(volumes)

    def test_query_volume_validates_regime(self, tissue):
        with pytest.raises(ValueError, match="regime"):
            fig17_query_volume(tissue, "medium")

    def test_unknown_panel_rejected(self):
        with pytest.raises(ValueError, match="panel"):
            fig17_matrix("z", datasets=TINY_FIG17)
        with pytest.raises(ValueError, match="at least one dataset"):
            fig17_matrix("a", datasets={})

    def test_matrix_is_deterministic(self):
        once = fig17_matrix("a", datasets=TINY_FIG17, n_sequences=SEQUENCES)
        again = fig17_matrix("a", datasets=TINY_FIG17, n_sequences=SEQUENCES)
        assert [c.key() for c in once] == [c.key() for c in again]

    def test_roads_cell_runs_end_to_end(self):
        cells = fig17_matrix(
            "a",
            datasets={"roads": TINY_FIG17["roads"]},
            prefetchers=(("scout", {}),),
            n_sequences=SEQUENCES,
        )
        (cell,) = cells
        result = run_cell(cell)
        assert result.ok and 0.0 <= result.metrics.cache_hit_rate <= 1.0


class TestDeterminismVsDirectHarness:
    """``run_cell`` agrees bit-for-bit with ``run_experiment`` on prebuilt objects.

    The direct side builds a *fresh* prefetcher per cell, as the runner
    does: SCOUT's RNG lives on the instance and ``begin_sequence`` does
    not reset it, so an instance reused across cells draws a different
    stream (the retired pytest harness did exactly that, and its Fig 11
    drifted from the sweep's by a point).
    """

    def _direct(self, tissue, tissue_index, bench, prefetcher, seed):
        sequences = MICROBENCHMARKS[bench].generate(tissue, SEQUENCES, seed=seed)
        return run_experiment(tissue_index, sequences, prefetcher)

    def test_fig11_cells_match_direct_runs(self, tissue, tissue_index):
        bench = "adhoc_stat"
        matrix = tiny(fig11_matrix, benches=[bench])
        direct = {
            "ewma": EWMAPrefetcher(lam=0.3),
            "straight-line": StraightLinePrefetcher(),
            "hilbert": HilbertPrefetcher(tissue),
            "scout": ScoutPrefetcher(tissue, ScoutConfig()),
        }
        for cell in matrix:
            expected = self._direct(
                tissue, tissue_index, bench, direct[cell.prefetcher.kind], seed=11
            )
            assert run_cell(cell).metrics == expected.metrics, cell.prefetcher.kind

    def test_fig12_scout_opt_matches_direct_run(self, tissue, tissue_index):
        bench = "vis_gaps_high"
        matrix = tiny(fig12_matrix, benches=[bench], prefetchers=(("scout-opt", {}),))
        (cell,) = matrix.cells()
        expected = self._direct(
            tissue,
            tissue_index,
            bench,
            ScoutOptPrefetcher(tissue, tissue_index, ScoutConfig()),
            seed=12,
        )
        assert run_cell(cell).metrics == expected.metrics

    def test_fig10_scout_matches_fig11_scout_cell(self):
        # Same bench, same seeds: the fig10 and fig11 grids must share
        # content-identical scout cells (resume dedupes across figures).
        fig10_cell = next(
            c for c in tiny(fig10_matrix, benches=["adhoc_stat"]) if c.prefetcher.kind == "scout"
        )
        fig11_cell = next(
            c for c in tiny(fig11_matrix, benches=["adhoc_stat"]) if c.prefetcher.kind == "scout"
        )
        assert fig10_cell.key() == fig11_cell.key()


@pytest.mark.parametrize("panel", list(FIG13_PANELS))
def test_fig13_panel_row_round_trips(panel):
    """One table row builds the panel and reads its cells' ticks back."""
    ticks = FIG13_PANELS[panel][2]
    cells = fig13_matrix(panel).cells()
    read_back = [fig13_axis_value(panel, cell.to_dict()) for cell in cells]
    assert tuple(dict.fromkeys(read_back)) == ticks
    assert len(cells) == len(ticks) * (2 if panel == "f" else 1)


GRID_PIN = Path(__file__).parent / "golden" / "grid_keys.json"

#: ``--figure`` value -> the cells ``scout-repro sweep --figure F``
#: expands to with no other flag, spelled through the public builders.
DEFAULT_GRIDS = {
    "3": lambda: fig3_matrix().cells(),
    "10": lambda: fig10_matrix().cells(),
    "11": lambda: fig11_matrix().cells(),
    "12": lambda: fig12_matrix().cells(),
    "13": lambda: [c for panel in FIG13_PANELS for c in fig13_matrix(panel).cells()],
    "14": lambda: fig14_matrix().cells(),
    "17": lambda: [c for panel in FIG17_PANELS for c in fig17_matrix(panel)],
    "clients": clients_matrix,
    "chaos": chaos_matrix,
    "tiers": tiers_matrix,
    "shards": shards_matrix,
}


@pytest.mark.parametrize("figure", list(DEFAULT_GRIDS))
def test_default_grid_keys_and_listing_are_pinned(figure, capsys, request):
    """Cell keys are store addresses: a default grid must never move.

    Regenerate (only for an intentional grid change, which orphans
    every stored result of the moved cells) with ``--update-golden``.
    """
    keys = [cell.key() for cell in DEFAULT_GRIDS[figure]()]
    assert main(["sweep", "--figure", figure, "--list-cells"]) == 0
    listing = capsys.readouterr().out.splitlines()

    if request.config.getoption("--update-golden"):
        pins = json.loads(GRID_PIN.read_text()) if GRID_PIN.exists() else {}
        pins[figure] = {"keys": keys, "list_cells": listing}
        GRID_PIN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        return

    pinned = json.loads(GRID_PIN.read_text())[figure]
    assert keys == pinned["keys"], f"--figure {figure} cell keys or their order moved"
    assert listing == pinned["list_cells"], f"--figure {figure} --list-cells output changed"
    assert listing[-1] == f"{len(keys)} cells"


# -- the paper shapes on the registry entries -----------------------------------------

#: (``--figure`` value, group label) -> one row dict per rendered table,
#: with values that keep the paper's reading of that group.
HOLDING = {
    (3, "fig3"): [
        {
            "ewma-0.3": [77.0, 70.0, 67.0, 64.0],
            "straight-line": [83.0, 68.0, 57.0, 54.0],
            "poly-2": [71.0, 32.0, 14.0, 15.0],
            "poly-3": [40.0, 14.0, 4.0, 2.0],
        }
    ],
    (11, "fig11"): [
        {
            "ewma-0.3": [66.0, 79.0, 89.0],
            "straight-line": [65.0, 82.0, 92.0],
            "hilbert": [46.0, 69.0, 82.0],
            "scout": [74.0, 96.0, 95.0],
        },
        {
            "ewma-0.3": [2.3, 3.5, 6.3],
            "straight-line": [2.3, 4.1, 8.3],
            "hilbert": [1.9, 3.3, 5.6],
            "scout": [3.0, 11.0, 13.0],
        },
    ],
    (12, "fig12"): [
        {
            "ewma-0.3": [74.0, 75.0],
            "straight-line": [62.0, 63.0],
            "hilbert": [69.0, 71.0],
            "scout": [74.0, 75.0],
            "scout-opt": [82.0, 85.0],
        },
        {"scout": [3.5, 3.7], "scout-opt": [4.8, 5.5]},
    ],
    (13, "a"): [{"scout": [94.0, 85.0, 71.0]}],
    (13, "b"): [{"scout": [86.0, 91.0, 81.0]}],
    (13, "c"): [{"scout": [56.0, 76.0, 85.0]}],
    (13, "d"): [{"scout": [11.0, 65.0, 88.0]}],
    (13, "e"): [{"scout": [79.0, 76.0, 70.0]}],
    (13, "f"): [{"scout": [66.0, 57.0, 52.0], "scout-opt": [72.0, 64.0, 62.0]}],
    (14, "fig14"): [
        {"scout": [0.18, 0.29, 0.38]},
        {"scout": [17.0, 17.0, 14.0]},
        {"scout": [1.8, 1.6, 1.3]},
    ],
    (17, "a"): [
        {
            "ewma-0.3": [67.0, 96.0, 28.0],
            "straight-line": [62.0, 59.0, 33.0],
            "hilbert": [25.0, 46.0, 71.0],
            "scout": [62.0, 90.0, 83.0],
        }
    ],
    (17, "b"): [
        {
            "ewma-0.3": [67.0, 75.0, 23.0],
            "straight-line": [51.0, 40.0, 16.0],
            "hilbert": [24.0, 32.0, 54.0],
            "scout": [52.0, 61.0, 72.0],
        }
    ],
}

#: (group, table index, row, doctored values, the statement that must be named).
DOCTORED = [
    ((3, "fig3"), 0, "poly-3", [80.0, 70.0, 60.0, 50.0], "poly-3 is below poly-2"),
    ((3, "fig3"), 0, "ewma-0.3", [60.0, 70.0, 75.0, 80.0], "ewma-0.3 gains less than 10"),
    ((11, "fig11"), 0, "scout", [60.0, 70.0, 95.0], "at or above straight-line"),
    ((11, "fig11"), 0, "scout", [50.0, 96.0, 95.0], "lowest hit rate is above 55%"),
    ((11, "fig11"), 1, "scout", [3.0, 4.0, 4.5], "best speedup is above 5x"),
    ((12, "fig12"), 0, "scout-opt", [70.0, 85.0], "within 1 point of SCOUT"),
    ((12, "fig12"), 0, "ewma-0.3", [90.0, 90.0], "above ewma-0.3 summed"),
    ((13, "a"), 0, "scout", [71.0, 85.0, 94.0], "falls from the smallest to the largest"),
    ((13, "b"), 0, "scout", [86.0, 91.0, 45.0], "above 50% at every density"),
    ((13, "c"), 0, "scout", [85.0, 76.0, 56.0], "longest sequences beat the shortest"),
    ((13, "d"), 0, "scout", [60.0, 65.0, 70.0], "rises by more than 20 points"),
    ((13, "e"), 0, "scout", [79.0, 50.0, 70.0], "agree within 12 points"),
    ((13, "f"), 0, "scout-opt", [60.0, 50.0, 40.0], "SCOUT-OPT is at or above SCOUT"),
    ((14, "fig14"), 1, "scout", [17.0, 30.0, 50.0], "graph building stays below 45%"),
    ((14, "fig14"), 1, "scout", [17.0, 25.0, 40.0], "grows by less than 15 points"),
    ((14, "fig14"), 2, "scout", [1.8, 10.0, 25.0], "prediction stays below 20%"),
    ((17, "a"), 0, "scout", [62.0, 60.0, 83.0], "within 25 points of EWMA on the arterial"),
    ((17, "b"), 0, "hilbert", [24.0, 32.0, 80.0], "beats every baseline on roads"),
    ((17, "b"), 0, "ewma-0.3", [90.0, 75.0, 23.0], "best baseline on lung"),
]


def shape_tables(group, doctor=lambda rows_per_table: None):
    """``HOLDING[group]`` as rendered tables, after ``doctor`` edited the row dicts."""
    rows_per_table = [
        {label: list(values) for label, values in rows.items()} for rows in HOLDING[group]
    ]
    width = len(next(iter(rows_per_table[0].values())))
    columns = ["lung", "arterial", "roads"] if group[0] == 17 else [str(i) for i in range(width)]
    doctor(rows_per_table)
    tables = []
    for rows in rows_per_table:
        table = ResultTable("demo", columns)
        for label, values in rows.items():
            table.add_row(label, values)
        tables.append(table)
    return tables


class TestFigureShapes:
    def test_every_paper_figure_has_a_shape_and_no_other_grid_does(self):
        with_shape = {name for name, figure in FIGURES.items() if figure.shape is not None}
        assert with_shape == {figure for figure, _ in HOLDING}

    @pytest.mark.parametrize("group", list(HOLDING), ids=lambda g: f"{g[0]}{g[1]}")
    def test_shape_holds_on_the_papers_reading(self, group):
        figure, label = group
        assert FIGURES[figure].shape(label, shape_tables(group)) == []

    @pytest.mark.parametrize(
        "group, index, row, values, statement",
        DOCTORED,
        ids=[f"{g[0]}{g[1]}-{row}-{i}" for i, (g, _, row, _, _) in enumerate(DOCTORED)],
    )
    def test_doctored_table_names_the_statement(self, group, index, row, values, statement):
        figure, label = group

        def doctor(rows_per_table):
            rows_per_table[index][row] = values

        violated = FIGURES[figure].shape(label, shape_tables(group, doctor))
        assert violated and violated != [NOT_EVALUATED]
        assert any(statement in line for line in violated), violated

    @pytest.mark.parametrize("group", list(HOLDING), ids=lambda g: f"{g[0]}{g[1]}")
    def test_blank_cell_or_missing_row_is_not_evaluated(self, group):
        figure, label = group
        last_row = list(HOLDING[group][0])[-1]  # every shape reads it

        # A cell that failed or fell outside the shard is absent from
        # every table of its group.
        def blank(rows_per_table):
            for rows in rows_per_table:
                rows[last_row][0] = None

        def drop(rows_per_table):
            for rows in rows_per_table:
                del rows[last_row]

        for doctor in (blank, drop):
            assert FIGURES[figure].shape(label, shape_tables(group, doctor)) == [NOT_EVALUATED]

    def test_fig17_without_a_dataset_column_is_not_evaluated(self):
        tables = shape_tables((17, "b"))
        lung_only = ResultTable("demo", ["lung"])
        for label, values in tables[0].rows:
            lung_only.add_row(label, values[:1])
        assert FIGURES[17].shape("b", [lung_only]) == [NOT_EVALUATED]


def shape_lines(capsys) -> list[str]:
    return [line for line in capsys.readouterr().out.splitlines() if line.startswith("shape:")]


class TestShapeLine:
    TINY = ["--neurons", "6", "--sequences", "2"]

    def test_one_shape_line_per_group_and_exit_0_when_it_differs(self, capsys, tmp_path):
        # One tick per panel: 13a cannot fall, 13d has no second ratio.
        args = ["sweep", "--figure", "13", "--panels", "a,d", "--points", "1", *self.TINY]
        assert main(args + ["--out", str(tmp_path / "one.jsonl")]) == 0
        assert shape_lines(capsys) == [
            "shape: differs -- accuracy falls from the smallest to the largest query volume",
            f"shape: differs -- {NOT_EVALUATED}",
        ]

        args = ["sweep", "--figure", "13", "--panels", "d", "--points", "2", *self.TINY]
        assert main(args + ["--out", str(tmp_path / "two.jsonl")]) == 0
        assert shape_lines(capsys) == ["shape: holds"]

    def test_grid_the_paper_does_not_draw_prints_no_shape_line(self, capsys, tmp_path):
        args = ["sweep", "--figure", "10", "--benches", "adhoc_stat", *self.TINY]
        assert main(args + ["--out", str(tmp_path / "fig10.jsonl")]) == 0
        assert "shape:" not in capsys.readouterr().out
