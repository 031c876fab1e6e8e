"""Smoke test of the end-to-end benchmark: structure only, never a timing.

Runs every workload at ``--smoke`` sizes, untraced and traced, and
checks that the result line names exactly the metrics ``BENCHMARK.json``
declares (with their units), that every output check passed and that no
operation failed.  The limits on ``BENCHMARK.json`` itself are the ones
the benchmark's driver enforces before a single run.
"""

from __future__ import annotations

import json
import math
import re

import pytest

import e2e_bench

SPEC = json.loads((e2e_bench.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(e2e_bench.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", e2e_bench.WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace, capsys):
    status = e2e_bench.main(["--workload", workload, "--smoke", "--trace", str(trace)])
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    document = json.loads("\n".join(lines[:-1]))
    result = json.loads(lines[-1])

    failed_checks = [check for check in document["checks"] if not check["ok"]]
    assert not failed_checks
    assert status == 0 and document["smoke"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    assert set(document["exact_metrics"]) <= set(declared)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"])
    if not trace:
        # A relative bound needs a non-zero base on every workload.
        assert all(metric["value"] > 0 for metric in result["metrics"].values())
