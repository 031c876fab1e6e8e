"""Reporting tables, sweep definitions and the CLI entry point."""

import pytest

from repro.analysis import ResultTable, format_row, paper_reference, sweep_table
from repro.cli import main
from repro.workload.sweeps import (
    FIG13_PANELS,
    SENSITIVITY_DEFAULTS,
    fig13_axis_value,
    fig13_matrix,
)


class TestResultTable:
    def test_render_includes_rows_and_columns(self):
        table = ResultTable("demo", ["a", "b"], figure_id="fig3")
        table.add_row("scout", [1.25, 2.5])
        text = table.render()
        assert "demo" in text and "scout" in text
        assert "paper:" in text  # fig3 has a reference note

    def test_row_length_validated(self):
        table = ResultTable("demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("bad", [1.0])

    def test_format_row_handles_none_and_strings(self):
        row = format_row("label", [None, "n/a", 1.5])
        assert "n/a" in row and "1.5" in row

    def test_paper_reference_empty_for_unknown(self):
        assert paper_reference("fig99") == ""


class TestSweeps:
    def test_axes_cover_all_panels(self):
        assert sorted(FIG13_PANELS) == ["a", "b", "c", "d", "e", "f"]
        assert {field[-1] for field, _, _ in FIG13_PANELS.values()} == {
            "volume",
            "n_neurons",
            "n_queries",
            "window_ratio",
            "grid_resolution",
            "gap",
        }
        assert FIG13_PANELS["e"][2][0] == 32_768

    def test_defaults_match_paper(self):
        assert SENSITIVITY_DEFAULTS.n_queries == 25
        assert SENSITIVITY_DEFAULTS.volume == 80_000.0
        assert SENSITIVITY_DEFAULTS.window_ratio == 1.0


class TestSweepTable:
    def make_results(self):
        return [
            {"row": "scout", "x": 0.1, "v": 29.0},
            {"row": "scout", "x": 2.5, "v": 88.0},
            {"row": "ewma", "x": 0.1, "v": 20.0},
        ]

    def test_pivots_rows_and_columns_in_first_appearance_order(self):
        table = sweep_table(
            "demo",
            self.make_results(),
            column_of=lambda r: r["x"],
            row_of=lambda r: r["row"],
            value_of=lambda r: r["v"],
        )
        assert table.columns == ["0.1", "2.5"]
        assert table.row_values("scout") == [29.0, 88.0]

    def test_missing_cells_render_blank(self):
        table = sweep_table(
            "demo",
            self.make_results(),
            column_of=lambda r: r["x"],
            row_of=lambda r: r["row"],
            value_of=lambda r: r["v"],
        )
        assert table.row_values("ewma") == [20.0, None]
        assert "ewma" in table.render()


class TestFig13Matrix:
    def test_every_panel_has_axis_sized_grid(self):
        for panel in "abcde":
            matrix = fig13_matrix(panel, n_neurons=6, n_sequences=2)
            assert len(matrix.cells()) == len(FIG13_PANELS[panel][2]), panel

    def test_gap_panel_pairs_scout_with_scout_opt(self):
        matrix = fig13_matrix("f", n_neurons=6, n_sequences=2)
        kinds = {cell.prefetcher.kind for cell in matrix.cells()}
        assert kinds == {"scout", "scout-opt"}
        assert len(matrix.cells()) == 2 * len(FIG13_PANELS["f"][2])

    def test_axis_values_recoverable_from_specs(self):
        axis = [0.5, 1.5]
        matrix = fig13_matrix("d", n_neurons=6, n_sequences=2, axis=axis)
        values = [fig13_axis_value("d", cell.to_dict()) for cell in matrix.cells()]
        assert values == axis

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            fig13_matrix("c", axis=[])

    def test_unknown_panel_rejected(self):
        with pytest.raises(ValueError, match="panel"):
            fig13_matrix("z")
        with pytest.raises(ValueError, match="panel"):
            fig13_axis_value("z", {})


class TestCli:
    def test_list_benchmarks(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "adhoc_stat" in out and "vis_gaps_low" in out

    def test_run_subcommand_is_the_legacy_default(self, capsys):
        assert main(["run", "--list"]) == 0
        assert "adhoc_stat" in capsys.readouterr().out

    def test_retired_bench_subcommand_fails_loudly(self, capsys):
        """It must not fall through to the default ``run`` cell."""
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: bench" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--neurons", "0"], "--neurons"),
            (["run", "--sequences", "0"], "--sequences"),
            (["sweep", "--figure", "3", "--neurons", "8", "--sequences", "0"], "--sequences"),
            (["sweep", "--figure", "3", "--neurons", "0", "--list-cells"], "--neurons"),
            (["sweep", "--figure", "13", "--points", "0", "--list-cells"], "--points"),
            (["sweep", "--figure", "3", "--timeout", "nan", "--list-cells"], "--timeout"),
            (["loadgen", "--process", "bursty", "--burst", "0", "--requests", "5"], "--burst"),
            (["loadgen", "--duration", "-1"], "--duration"),
            (["loadgen", "--rate", "nan", "--requests", "5"], "--rate"),
        ],
        ids=lambda value: value[0] if isinstance(value, list) else value,
    )
    def test_out_of_range_value_is_a_parser_error(self, capsys, argv, flag):
        """The bound is declared at the flag: ``parser.error`` names it, exit 2."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"error: {flag} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["sweep", "--figure", "bogus", "--list-cells"], "figure must be"),
            (["sweep", "--figure", "13", "--panels", ",", "--list-cells"], "--panels must name"),
            (
                ["sweep", "--figure", "clients", "--cache-pages", ",", "--list-cells"],
                "--cache-pages must name",
            ),
            (["loadgen", "--port", "1"], "exactly one of --requests and --duration"),
            (["loadgen", "--requests", "5", "--duration", "1"], "exactly one of --requests"),
        ],
        ids=["figure", "panels", "cache-pages", "no-load", "two-loads"],
    )
    def test_malformed_value_is_a_parser_error(self, capsys, argv, text):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert text in capsys.readouterr().err

    def test_merge_of_no_existing_store_fails(self, capsys, tmp_path):
        out = tmp_path / "merged.jsonl"
        assert main(["merge", "--out", str(out), str(tmp_path / "missing.jsonl")]) == 2
        assert "merge failed: no input store exists" in capsys.readouterr().out
        assert not out.exists()

    def test_run_small_experiment(self, capsys):
        code = main(
            [
                "--prefetcher",
                "straight-line",
                "--benchmark",
                "adhoc_stat",
                "--neurons",
                "6",
                "--sequences",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hit rate" in out and "speedup" in out


FIGURE_NAMES = ["3", "10", "11", "12", "13", "14", "17", "clients", "chaos", "tiers", "shards"]
SERVING = ["clients", "chaos", "tiers", "shards"]

#: Figure-specific sweep flag -> (a well-formed value, the figures that
#: take it, the error every other figure answers with).  Running the
#: wrong (possibly much larger) grid is worse than an argparse error.
FOREIGN_FLAGS = {
    "--benches": (
        "adhoc_stat",
        ["10", "11", "12"],
        "--benches applies to --figure 10|11|12, not --figure {figure}",
    ),
    "--panels": ("a", ["13", "17"], "--panels applies to --figure 13|17, not --figure {figure}"),
    "--points": ("2", ["13"], "--points applies to --figure 13, not --figure {figure}"),
    "--datasets": ("roads", ["17"], "--datasets applies to --figure 17, not --figure {figure}"),
    "--neurons": (
        "6",
        ["3", "10", "11", "12", "13", *SERVING],
        "--neurons applies to --figure 3|10|11|12|13|clients|chaos|tiers|shards, "
        "not --figure {figure}",
    ),
    "--clients": (
        "1,2",
        ["clients"],
        "--clients applies to --figure clients, not --figure {figure}",
    ),
    "--cache-pages": (
        "64",
        ["clients"],
        "--cache-pages applies to --figure clients, not --figure {figure}",
    ),
    "--contention": (
        "hotspot",
        ["clients"],
        "--contention applies to --figure clients, not --figure {figure}",
    ),
    "--sequences": (
        "2",
        ["3", "10", "11", "12", "13", "14", "17"],
        "--sequences applies to --figure 3|10|11|12|13|14|17, not --figure {figure}",
    ),
}


class TestSweepCli:
    SWEEP_ARGS = [
        "sweep",
        "--panels", "d",
        "--points", "2",
        "--neurons", "6",
        "--sequences", "2",
        "--jobs", "1",
    ]

    def test_sweep_computes_then_resumes(self, capsys, tmp_path):
        args = self.SWEEP_ARGS + ["--out", str(tmp_path / "sweep.jsonl")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Fig 13d" in out and "computed 2" in out and "resumed 0" in out

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "computed 0" in out and "resumed 2" in out

    def test_sweep_no_resume_recomputes(self, capsys, tmp_path):
        args = self.SWEEP_ARGS + ["--out", str(tmp_path / "sweep.jsonl")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--no-resume"]) == 0
        assert "computed 2" in capsys.readouterr().out

    def test_sweep_recovers_from_corrupt_store(self, capsys, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        args = self.SWEEP_ARGS + ["--out", str(store_path)]
        assert main(args) == 0
        capsys.readouterr()
        lines = store_path.read_text().splitlines()
        lines[0] = lines[0][:30]  # truncate: crash mid-write
        store_path.write_text("\n".join(lines) + "\n")

        assert main(args) == 0
        out = capsys.readouterr().out
        assert "computed 1" in out and "resumed 1" in out and "corrupt-dropped 1" in out

    def test_sweep_list_cells(self, capsys, tmp_path):
        args = self.SWEEP_ARGS + ["--list-cells", "--out", str(tmp_path / "s.jsonl")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out and "scout" in out
        assert not (tmp_path / "s.jsonl").exists()

    def test_sweep_rejects_unknown_panel(self, capsys):
        assert main(["sweep", "--panels", "q"]) == 2
        assert "unknown panel" in capsys.readouterr().out

    def test_sweep_figure_10_renders_bench_tables(self, capsys, tmp_path):
        args = [
            "sweep", "--figure", "10", "--benches", "adhoc_stat",
            "--neurons", "6", "--sequences", "2",
            "--out", str(tmp_path / "fig10.jsonl"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Fig 10 sweep" in out and "adhoc_stat" in out
        assert "computed 1" in out and "failed 0" in out

        assert main(args) == 0
        assert "resumed 1" in capsys.readouterr().out

    def test_sweep_rejects_unknown_bench(self, capsys, tmp_path):
        args = [
            "sweep", "--figure", "11", "--benches", "warp_drive",
            "--out", str(tmp_path / "s.jsonl"),
        ]
        assert main(args) == 2
        assert "unknown microbenchmark" in capsys.readouterr().out

    def test_sweep_rejects_malformed_shard(self, capsys, tmp_path):
        for shard in ("2/2", "a/b", "3"):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "--shard", shard, "--out", str(tmp_path / "s.jsonl")])
            assert excinfo.value.code == 2

    def test_sharded_sweep_merges_to_full_grid(self, capsys, tmp_path):
        out = tmp_path / "fig10.jsonl"
        base = [
            "sweep", "--figure", "10", "--benches", "adhoc_stat,model_building",
            "--neurons", "6", "--sequences", "2", "--out", str(out),
        ]
        shard_cells = []
        for shard in ("0/2", "1/2"):
            assert main(base + ["--shard", shard]) == 0
            summary = capsys.readouterr().out
            assert f"shard {shard}" in summary
            shard_cells.append(int(summary.split("cells ", 1)[1].split()[0]))
        assert sum(shard_cells) == 2  # the slices partition the grid

        shard_paths = [str(tmp_path / f"fig10.shard{i}of2.jsonl") for i in (0, 1)]
        assert main(["merge", "--out", str(out)] + shard_paths) == 0
        merge_out = capsys.readouterr().out
        assert "merged 2 cells" in merge_out

        # The merged store satisfies an unsharded resume of the grid.
        assert main(base) == 0
        assert "resumed 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "figure, flag",
        [
            (figure, flag)
            for flag, (_, takers, _) in FOREIGN_FLAGS.items()
            for figure in FIGURE_NAMES
            if figure not in takers
        ],
    )
    def test_sweep_rejects_mixed_figure_flags(self, capsys, figure, flag):
        value, _, message = FOREIGN_FLAGS[flag]
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--figure", figure, flag, value])
        assert excinfo.value.code == 2
        expected = f"scout-repro sweep: error: {message.format(figure=figure)}\n"
        assert capsys.readouterr().err.endswith(expected)

    def test_first_foreign_flag_is_the_one_reported(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--figure", "chaos", "--sequences", "2", "--panels", "a"])
        assert "--panels applies to" in capsys.readouterr().err

    CLIENTS_ARGS = [
        "sweep", "--figure", "clients",
        "--clients", "1,2",
        "--cache-pages", "auto,32",
        "--neurons", "6",
        "--jobs", "1",
    ]

    def test_clients_sweep_renders_per_client_count_tables(self, capsys, tmp_path):
        args = self.CLIENTS_ARGS + ["--out", str(tmp_path / "clients.jsonl")]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Serving sweep -- shared cache auto -- aggregate hit rate" in out
        assert "Serving sweep -- shared cache 32 pages" in out
        assert "per-client hit-rate std" in out
        assert "computed 8" in out and "failed 0" in out

        # The store satisfies a resume, like every other figure grid.
        assert main(args) == 0
        assert "resumed 8" in capsys.readouterr().out

    def test_clients_sweep_hotspot_mode_and_list_cells(self, capsys, tmp_path):
        args = self.CLIENTS_ARGS + [
            "--contention", "hotspot",
            "--list-cells", "--out", str(tmp_path / "c.jsonl"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "8 cells" in out and "clients=2" in out

    def test_clients_sweep_rejects_bad_values(self, tmp_path):
        bad = [
            ["sweep", "--figure", "clients", "--clients", "0"],
            ["sweep", "--figure", "clients", "--clients", "two"],
            ["sweep", "--figure", "clients", "--cache-pages", "0"],
            ["sweep", "--figure", "clients", "--cache-pages", "many"],
            ["sweep", "--figure", "18"],
        ]
        for args in bad:
            with pytest.raises(SystemExit) as excinfo:
                main(args + ["--out", str(tmp_path / "s.jsonl")])
            assert excinfo.value.code == 2, args

    def test_merge_warns_about_missing_inputs(self, capsys, tmp_path):
        out = tmp_path / "fig10.jsonl"
        assert main([
            "sweep", "--figure", "10", "--benches", "adhoc_stat",
            "--neurons", "6", "--sequences", "2", "--out", str(out),
        ]) == 0
        capsys.readouterr()
        missing = str(tmp_path / "nope.jsonl")
        assert main(["merge", "--out", str(out), str(out), missing]) == 0
        merge_out = capsys.readouterr().out
        assert "does not exist" in merge_out and "missing-inputs 1" in merge_out
        assert "merged 1 cells" in merge_out

    def test_sweep_list_cells_names_benches(self, capsys, tmp_path):
        args = [
            "sweep", "--figure", "12", "--list-cells",
            "--neurons", "6", "--sequences", "2",
            "--out", str(tmp_path / "s.jsonl"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "bench=vis_gaps_high" in out and "scout-opt" in out
        assert "10 cells" in out  # 2 gap benches x 5 prefetchers

    def test_sweep_figure_17_computes_and_renders_dataset_table(self, capsys, tmp_path):
        args = [
            "sweep", "--figure", "17", "--panels", "a", "--datasets", "roads",
            "--sequences", "2", "--out", str(tmp_path / "fig17.jsonl"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Fig 17a" in out and "roads" in out and "scout" in out
        assert "paper:" in out  # fig17a carries the paper's shape note
        assert "computed 4" in out and "failed 0" in out

        assert main(args) == 0
        assert "resumed 4" in capsys.readouterr().out

    def test_sweep_figure_17_list_cells_names_datasets(self, capsys, tmp_path):
        args = [
            "sweep", "--figure", "17", "--list-cells", "--sequences", "2",
            "--out", str(tmp_path / "s.jsonl"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "dataset=lung" in out and "dataset=arterial" in out and "dataset=roads" in out
        assert "24 cells" in out  # 2 panels x 3 datasets x 4 prefetchers

    def test_sweep_figure_17_rejects_unknown_panel_and_dataset(self, capsys, tmp_path):
        assert main(["sweep", "--figure", "17", "--panels", "q",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "unknown panel" in capsys.readouterr().out
        assert main(["sweep", "--figure", "17", "--datasets", "ocean",
                     "--out", str(tmp_path / "s.jsonl")]) == 2
        assert "unknown dataset" in capsys.readouterr().out

    def test_compact_rewrites_store_and_reports_reclaimed_bytes(self, capsys, tmp_path):
        store_path = tmp_path / "sweep.jsonl"
        assert main(self.SWEEP_ARGS + ["--out", str(store_path)]) == 0
        capsys.readouterr()
        lines = store_path.read_text().splitlines()
        with store_path.open("a") as fh:
            fh.write("{ not json\n")  # corrupt
            fh.write(lines[0] + "\n")  # superseded duplicate
        before = store_path.stat().st_size

        assert main(["compact", str(store_path)]) == 0
        out = capsys.readouterr().out
        assert "kept 2 cells" in out and "corrupt 1" in out and "superseded 1" in out
        assert "reclaimed" in out
        assert store_path.stat().st_size < before

        # Every ok record survived: the sweep fully resumes from it.
        assert main(self.SWEEP_ARGS + ["--out", str(store_path)]) == 0
        assert "resumed 2" in capsys.readouterr().out

    def test_compact_missing_store_fails(self, capsys, tmp_path):
        assert main(["compact", str(tmp_path / "nope.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().out

    def test_sweep_neurons_rescales_density_panel(self, capsys, tmp_path):
        # Panel b's axis is the neuron count; --neurons must shrink it
        # rather than being silently ignored (first tick 40 -> 40*4/80).
        args = [
            "sweep", "--panels", "b", "--points", "1", "--neurons", "4",
            "--sequences", "2", "--list-cells", "--out", str(tmp_path / "s.jsonl"),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "axis=2" in out and "1 cells" in out
