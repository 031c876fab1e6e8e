"""The evaluation grids as declarative matrices.

The contract under test: the matrix builders enumerate exactly the
figure's (benchmark x prefetcher) grid, cells are labelled back to
their Figure-10 rows, and -- the determinism anchor -- running a cell
through the orchestrator produces bit-identical metrics to the direct
``benchmarks/test_fig1*.py`` harness path (build tissue, generate
sequences, run_experiment) on the same tiny tissue.

``tests/golden/grid_keys.json`` additionally pins all nine *default*
grids as the CLI sweeps them: every cell key, in order, and the
``--list-cells`` transcript, so plumbing changes between the matrix
builders and ``scout-repro sweep`` cannot silently move a stored cell.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.baselines import EWMAPrefetcher, HilbertPrefetcher, StraightLinePrefetcher
from repro.cli import main
from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher
from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.sim import run_cell, run_experiment
from repro.workload import MICROBENCHMARKS, microbenchmark_names
from repro.workload.sweeps import (
    FIG11_PREFETCHERS,
    FIG12_PREFETCHERS,
    FIG13_PANELS,
    FIG17_DATASET_PARAMS,
    FIG17_PANELS,
    chaos_matrix,
    clients_matrix,
    fig10_matrix,
    fig11_matrix,
    fig12_matrix,
    fig13_matrix,
    fig17_dataset_of,
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
    return builder(
        n_neurons=TINY_NEURONS,
        n_sequences=SEQUENCES,
        dataset_seed=SEED,
        fanout=FANOUT,
        **overrides,
    )


class TestGridShapes:
    def test_fig10_covers_the_whole_registry(self):
        matrix = tiny(fig10_matrix)
        assert len(matrix) == len(MICROBENCHMARKS)
        assert {cell.prefetcher.kind for cell in matrix} == {"scout"}

    def test_fig11_is_no_gap_benches_by_standard_prefetchers(self):
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
    def test_covers_datasets_x_standard_prefetchers(self):
        cells = fig17_matrix("a", datasets=TINY_FIG17, n_sequences=SEQUENCES)
        assert len(cells) == len(TINY_FIG17) * len(FIG11_PREFETCHERS)
        assert {cell.dataset.kind for cell in cells} == set(TINY_FIG17)
        assert {cell.prefetcher.kind for cell in cells} == {
            kind for kind, _ in FIG11_PREFETCHERS
        }
        assert {fig17_dataset_of(cell.to_dict()) for cell in cells} == set(TINY_FIG17)

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
    """Matrix cells agree bit-for-bit with the benchmarks/ harness path."""

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


GRID_PIN = Path(__file__).parent / "golden" / "grid_keys.json"

#: ``--figure`` value -> the cells ``scout-repro sweep --figure F``
#: expands to with no other flag, spelled through the public builders.
DEFAULT_GRIDS = {
    "10": lambda: fig10_matrix().cells(),
    "11": lambda: fig11_matrix().cells(),
    "12": lambda: fig12_matrix().cells(),
    "13": lambda: [c for panel in FIG13_PANELS for c in fig13_matrix(panel).cells()],
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
