"""The perf-tracking harness: report shape, budget gate, CLI, --profile."""

import json
import pstats

import numpy as np
import pytest

from repro.perf.bench import (
    BENCH_SCHEMA,
    BenchReport,
    bench_fig13a,
    bench_region_query,
    bench_serving,
    check_budget,
    render_report,
)


@pytest.fixture(scope="module")
def small_tissue():
    from repro.datagen import make_neuron_tissue

    return make_neuron_tissue(n_neurons=8, seed=7)


class TestSuites:
    def test_region_query_suite(self, small_tissue):
        result = bench_region_query(small_tissue, fanout=16, n_probes=40, repeats=1)
        assert result["scalar_qps"] > 0
        assert result["vector_batched_qps"] > 0
        assert result["batched_speedup"] == pytest.approx(
            result["vector_batched_qps"] / result["scalar_qps"], rel=1e-9
        )

    def test_fig13a_suite_asserts_bit_identity(self, small_tissue):
        result = bench_fig13a(
            small_tissue, fanout=16, volumes=[20_000.0], n_sequences=1, n_queries=4
        )
        assert result["metrics_bit_identical"] is True
        assert result["scalar_seconds"] > 0 and result["vector_seconds"] > 0
        assert len(result["hit_rates"]) == 1

    def test_serving_suite_asserts_bit_identity(self, small_tissue):
        from repro.index import FlatIndex

        index = FlatIndex(small_tissue, fanout=16)
        result = bench_serving(small_tissue, index, n_clients=8, n_queries=4, repeats=1)
        assert result["reports_bit_identical"] is True
        assert result["n_clients"] == 8
        assert result["lockstep_qps"] > 0 and result["round_robin_qps"] > 0
        assert result["lockstep_speedup"] == pytest.approx(
            result["round_robin_seconds"] / result["lockstep_seconds"], rel=1e-9
        )

    def test_serving_daemon_suite(self):
        from repro.perf.bench import bench_serving_daemon

        result = bench_serving_daemon(n_requests=60, n_neurons=6)
        assert result["n_requests"] == 60
        assert result["drained"] is True
        assert result["achieved_qps"] > 0
        assert result["p50_ms"] <= result["p99_ms"] <= result["p999_ms"]


class TestReportAndBudget:
    def make_report(self, batched_qps, single_qps):
        report = BenchReport(rev="deadbee", quick=True)
        report.results["region_query"] = {
            "scalar_qps": 2_000.0,
            "vector_single_qps": single_qps,
            "vector_batched_qps": batched_qps,
            "single_speedup": single_qps / 2_000.0,
            "batched_speedup": batched_qps / 2_000.0,
        }
        return report

    def test_write_and_schema(self, tmp_path):
        report = self.make_report(50_000.0, 9_000.0)
        path = report.write(tmp_path)
        assert path.name == "BENCH_deadbee.json"
        record = json.loads(path.read_text())
        assert record["schema"] == BENCH_SCHEMA
        assert record["rev"] == "deadbee"
        assert "region_query" in record["results"]
        assert render_report(report)  # renders without error

    def budget_file(self, tmp_path, batched_floor, single_floor, tolerance=0.3):
        path = tmp_path / "budget.json"
        path.write_text(
            json.dumps(
                {
                    "tolerance": tolerance,
                    "floors": {
                        "region_query_batched_qps": batched_floor,
                        "region_query_single_qps": single_floor,
                    },
                }
            )
        )
        return path

    def test_budget_passes_above_floor(self, tmp_path):
        report = self.make_report(50_000.0, 9_000.0)
        assert check_budget(report, self.budget_file(tmp_path, 40_000, 8_000)) == []

    def test_budget_tolerates_within_tolerance(self, tmp_path):
        report = self.make_report(30_000.0, 6_000.0)
        # 30k >= 40k * 0.7 and 6k >= 8k * 0.7: inside the 30 % band.
        assert check_budget(report, self.budget_file(tmp_path, 40_000, 8_000)) == []

    def test_budget_fails_past_tolerance(self, tmp_path):
        report = self.make_report(10_000.0, 9_000.0)
        failures = check_budget(report, self.budget_file(tmp_path, 40_000, 8_000))
        assert len(failures) == 1
        assert "region_query_batched_qps" in failures[0]

    def test_budget_flags_unknown_metric(self, tmp_path):
        report = self.make_report(50_000.0, 9_000.0)
        path = tmp_path / "budget.json"
        path.write_text(json.dumps({"floors": {"no_such_metric": 1}}))
        failures = check_budget(report, path)
        assert failures and "no_such_metric" in failures[0]

    def test_speedup_floor_gates_on_ratio(self, tmp_path):
        report = self.make_report(50_000.0, 9_000.0)  # 25x / 4.5x vs 2k scalar
        path = tmp_path / "budget.json"
        path.write_text(
            json.dumps(
                {"tolerance": 0.3, "floors": {"region_query_batched_speedup": 10}}
            )
        )
        assert check_budget(report, path) == []
        # A regression to near-scalar throughput fails on the ratio even
        # if absolute q/s would still look healthy on a fast machine.
        slow = self.make_report(4_000.0, 9_000.0)  # 2x batched speedup
        failures = check_budget(slow, path)
        assert failures and "region_query_batched_speedup" in failures[0]

    def test_serving_floor_gates_on_ratio(self, tmp_path):
        report = self.make_report(50_000.0, 9_000.0)
        report.results["serving"] = {
            "round_robin_qps": 2_000.0,
            "lockstep_qps": 9_000.0,
            "lockstep_speedup": 4.5,
        }
        path = tmp_path / "budget.json"
        path.write_text(
            json.dumps({"tolerance": 0.3, "floors": {"serving_lockstep_speedup": 3.0}})
        )
        assert check_budget(report, path) == []
        report.results["serving"]["lockstep_speedup"] = 1.1
        failures = check_budget(report, path)
        assert failures and "serving_lockstep_speedup" in failures[0]

    def test_serving_daemon_floor_gates_on_achieved_qps(self, tmp_path):
        report = self.make_report(50_000.0, 9_000.0)
        report.results["serving_daemon"] = {"achieved_qps": 1_500.0}
        path = tmp_path / "budget.json"
        path.write_text(
            json.dumps({"tolerance": 0.3, "floors": {"serving_daemon_qps": 300}})
        )
        assert check_budget(report, path) == []
        report.results["serving_daemon"]["achieved_qps"] = 100.0
        failures = check_budget(report, path)
        assert failures and "serving_daemon_qps" in failures[0]

    def test_prediction_floor_gates_on_queries_per_second(self, tmp_path):
        report = self.make_report(50_000.0, 9_000.0)
        report.results["prediction"] = {"observe_plan_ms_per_query": 2.0}  # 500 q/s
        path = tmp_path / "budget.json"
        path.write_text(
            json.dumps({"tolerance": 0.3, "floors": {"prediction_observe_plan_qps": 300}})
        )
        assert check_budget(report, path) == []
        # Slower per query means fewer per second: 5 ms is 200 < 300 * 0.7.
        report.results["prediction"]["observe_plan_ms_per_query"] = 5.0
        failures = check_budget(report, path)
        assert failures and "prediction_observe_plan_qps" in failures[0]
        # A report without the suite measures nothing, which is below any floor.
        del report.results["prediction"]
        assert check_budget(report, path)

    def test_fig13a_floor_gates_on_sweep_speedup(self, tmp_path):
        report = self.make_report(50_000.0, 9_000.0)
        report.results["fig13a"] = {"sweep_speedup": 4.1}
        path = tmp_path / "budget.json"
        path.write_text(json.dumps({"tolerance": 0.3, "floors": {"fig13a_sweep_speedup": 3.0}}))
        assert check_budget(report, path) == []
        report.results["fig13a"]["sweep_speedup"] = 1.9
        failures = check_budget(report, path)
        assert failures and "fig13a_sweep_speedup" in failures[0]

    def test_checked_in_budget_is_loadable(self):
        from pathlib import Path

        budget = json.loads(
            (Path(__file__).resolve().parents[1] / "benchmarks/perf/budget.json").read_text()
        )
        assert set(budget["floors"]) == {
            "region_query_batched_speedup",
            "region_query_single_speedup",
            "region_query_batched_qps",
            "region_query_single_qps",
            "serving_lockstep_speedup",
            "serving_lockstep_qps",
            "serving_daemon_qps",
            "sharded_hot_qps",
            "prediction_observe_plan_qps",
            "fig13a_sweep_speedup",
        }
        assert 0.0 < budget["tolerance"] < 1.0
        hot = budget["floors"]["sharded_hot_qps"]
        assert hot["floor"] > 0
        assert 0.0 < hot["tolerance"] < budget["tolerance"]


class TestSweepProfileFlag:
    def test_profile_dumps_per_cell_prof_files(self, tmp_path):
        from repro.cli import main

        out = tmp_path / "sweep.jsonl"
        code = main(
            [
                "sweep",
                "--panels",
                "d",
                "--points",
                "1",
                "--neurons",
                "6",
                "--sequences",
                "1",
                "--out",
                str(out),
                "--profile",
            ]
        )
        assert code == 0
        profiles = sorted((tmp_path / "sweep.jsonl.profiles").glob("*.prof"))
        assert profiles, "expected per-cell .prof files next to the store"
        stats = pstats.Stats(str(profiles[0]))
        assert stats.total_calls > 0

    def test_runner_profiled_run_cell(self, tmp_path):
        from repro.sim.runner import (
            CellSpec,
            DatasetSpec,
            IndexSpec,
            PrefetcherSpec,
            WorkloadSpec,
            profiled_run_cell,
            run_cell,
        )

        spec = CellSpec(
            dataset=DatasetSpec("neuron", {"n_neurons": 6, "seed": 3}),
            index=IndexSpec("flat", {"fanout": 16}),
            workload=WorkloadSpec(n_sequences=1, n_queries=3, volume=20_000.0),
            prefetcher=PrefetcherSpec("scout"),
            seed=1,
        )
        result = profiled_run_cell(spec, tmp_path / "profiles")
        assert (tmp_path / "profiles" / f"{spec.key()[:16]}.prof").exists()
        # Profiling must not perturb the simulation itself.
        assert result.metrics.cache_hit_rate == run_cell(spec).metrics.cache_hit_rate
