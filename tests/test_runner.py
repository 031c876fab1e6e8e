"""The parallel experiment orchestrator and its persisted result store.

The contract under test: a cell's metrics are a pure function of its
spec, so (1) serial and parallel runs agree bit-for-bit, (2) a resumed
run reuses stored cells without recomputing them, and (3) corrupt or
truncated store lines are detected, dropped and recomputed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pstats

import pytest

from repro.sim import (
    CellSpec,
    DatasetSpec,
    ExperimentMatrix,
    IndexSpec,
    ParallelRunner,
    PrefetcherSpec,
    ResultStore,
    WorkloadSpec,
    cell_key,
    run_cell,
)
from repro.sim.results import CellResult, metrics_from_dict, metrics_to_dict

TINY_DATASET = DatasetSpec("neuron", {"n_neurons": 6, "seed": 11})
TINY_INDEX = IndexSpec("flat", {"fanout": 16})
TINY_WORKLOAD = WorkloadSpec(n_sequences=2, n_queries=5, volume=20_000.0)


def tiny_matrix(prefetchers=None) -> ExperimentMatrix:
    return ExperimentMatrix(
        datasets=(TINY_DATASET,),
        indexes=(TINY_INDEX,),
        workloads=(TINY_WORKLOAD,),
        prefetchers=tuple(
            prefetchers
            or (
                PrefetcherSpec("ewma", {"lam": 0.3}),
                PrefetcherSpec("straight-line"),
                PrefetcherSpec("none"),
            )
        ),
        seeds=(3,),
    )


class TestSpecs:
    def test_matrix_is_the_cross_product(self):
        matrix = ExperimentMatrix(
            datasets=(TINY_DATASET,),
            indexes=(TINY_INDEX,),
            workloads=(TINY_WORKLOAD, WorkloadSpec(n_sequences=1, n_queries=3, volume=9_000.0)),
            prefetchers=(PrefetcherSpec("none"), PrefetcherSpec("ewma", {"lam": 0.3})),
            seeds=(1, 2),
        )
        cells = matrix.cells()
        assert len(matrix.cells()) == len(cells) == 8
        assert len({cell.key() for cell in cells}) == 8

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            ExperimentMatrix(
                datasets=(),
                indexes=(TINY_INDEX,),
                workloads=(TINY_WORKLOAD,),
                prefetchers=(PrefetcherSpec("none"),),
            )

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ValueError, match="dataset kind"):
            DatasetSpec("galaxy")
        with pytest.raises(ValueError, match="index kind"):
            IndexSpec("btree")
        with pytest.raises(ValueError, match="prefetcher kind"):
            PrefetcherSpec("psychic")
        # The future-reading prefetcher is a test oracle, not a sweep cell.
        with pytest.raises(ValueError, match="prefetcher kind"):
            PrefetcherSpec("oracle")

    def test_grid_index_kind_is_gone(self):
        with pytest.raises(ValueError, match="unknown index kind 'grid'; known: flat, rtree"):
            IndexSpec("grid")

    def test_layered_prefetcher_kind_is_gone(self):
        with pytest.raises(ValueError, match="unknown prefetcher kind 'layered'"):
            PrefetcherSpec("layered")

    def test_spec_round_trips_with_stable_key(self):
        cell = tiny_matrix().cells()[0]
        clone = CellSpec.from_dict(cell.to_dict())
        assert clone == cell
        assert clone.key() == cell.key()

    def test_key_ignores_numeric_spelling(self):
        a = CellSpec(TINY_DATASET, TINY_INDEX, TINY_WORKLOAD, PrefetcherSpec("none"), seed=3)
        b = CellSpec(
            TINY_DATASET,
            TINY_INDEX,
            WorkloadSpec(n_sequences=2, n_queries=5, volume=20_000, gap=0, window_ratio=1),
            PrefetcherSpec("none"),
            seed=3,
        )
        assert a.key() == b.key()

    def test_key_differs_when_any_axis_differs(self):
        base = CellSpec(TINY_DATASET, TINY_INDEX, TINY_WORKLOAD, PrefetcherSpec("none"), seed=3)
        other_seed = CellSpec(
            TINY_DATASET, TINY_INDEX, TINY_WORKLOAD, PrefetcherSpec("none"), seed=4
        )
        other_sim = CellSpec(
            TINY_DATASET,
            TINY_INDEX,
            TINY_WORKLOAD,
            PrefetcherSpec("none"),
            seed=3,
            sim={"cache_capacity_pages": 64},
        )
        assert len({base.key(), other_seed.key(), other_sim.key()}) == 3


class TestDeterminism:
    @pytest.mark.usefixtures("start_method")
    def test_parallel_matches_serial_bit_for_bit(self):
        matrix = tiny_matrix()
        serial = ParallelRunner(jobs=1).run(matrix.cells())
        parallel = ParallelRunner(jobs=2).run(matrix.cells())
        assert [r.key for r in serial.results] == [r.key for r in parallel.results]
        assert [r.metrics for r in serial.results] == [r.metrics for r in parallel.results]

    def test_results_follow_cell_order(self):
        cells = tiny_matrix().cells()
        report = ParallelRunner(jobs=1).run(list(reversed(cells)))
        assert [r.key for r in report.results] == [c.key() for c in reversed(cells)]

    def test_duplicate_cells_computed_once_and_share_results(self):
        cells = tiny_matrix().cells()
        report = ParallelRunner(jobs=1).run(cells + cells)
        assert report.n_computed == len(cells)
        assert report.results[: len(cells)] == report.results[len(cells) :]

    def test_sim_overrides_reach_the_engine(self):
        spec = CellSpec(
            TINY_DATASET,
            TINY_INDEX,
            TINY_WORKLOAD,
            PrefetcherSpec("ewma", {"lam": 0.3}),
            seed=3,
            sim={"cache_capacity_pages": 1},
        )
        starved = run_cell(spec)
        normal = run_cell(CellSpec(TINY_DATASET, TINY_INDEX, TINY_WORKLOAD,
                                   PrefetcherSpec("ewma", {"lam": 0.3}), seed=3))
        # A one-page prefetch cache cannot beat the unconstrained one.
        assert starved.metrics.cache_hit_rate <= normal.metrics.cache_hit_rate


class TestResume:
    def test_resume_skips_completed_cells(self, tmp_path):
        matrix = tiny_matrix()
        path = tmp_path / "store.jsonl"
        first = ParallelRunner(jobs=1, store=ResultStore(path)).run(matrix.cells())
        assert first.n_computed == len(matrix.cells()) and first.n_skipped == 0

        second = ParallelRunner(jobs=1, store=ResultStore(path)).run(matrix.cells())
        assert second.n_computed == 0 and second.n_skipped == len(matrix.cells())
        assert [r.metrics for r in second.results] == [r.metrics for r in first.results]

    def test_partial_store_computes_only_the_rest(self, tmp_path):
        cells = tiny_matrix().cells()
        path = tmp_path / "store.jsonl"
        ParallelRunner(jobs=1, store=ResultStore(path)).run(cells[:1])

        report = ParallelRunner(jobs=1, store=ResultStore(path)).run(cells)
        assert report.n_skipped == 1
        assert report.n_computed == len(cells) - 1

    def test_no_resume_recomputes_everything(self, tmp_path):
        matrix = tiny_matrix()
        path = tmp_path / "store.jsonl"
        ParallelRunner(jobs=1, store=ResultStore(path)).run(matrix.cells())
        report = ParallelRunner(jobs=1, store=ResultStore(path)).run(matrix.cells(), resume=False)
        assert report.n_computed == len(matrix.cells()) and report.n_skipped == 0


class TestCorruptStore:
    def _seed_store(self, tmp_path):
        cells = tiny_matrix().cells()
        path = tmp_path / "store.jsonl"
        ParallelRunner(jobs=1, store=ResultStore(path)).run(cells)
        return cells, path

    def test_garbage_and_truncated_lines_are_dropped(self, tmp_path):
        cells, path = self._seed_store(tmp_path)
        lines = path.read_text().splitlines()
        lines[0] = "{ not json at all"
        lines[1] = lines[1][: len(lines[1]) // 2]  # crash mid-write
        path.write_text("\n".join(lines) + "\n")

        store = ResultStore(path)
        assert len(store.load()) == len(cells) - 2
        assert store.n_corrupt == 2

        report = ParallelRunner(jobs=1, store=store).run(cells)
        assert report.n_computed == 2 and report.n_skipped == len(cells) - 2

    def test_tampered_spec_fails_the_hash_check(self, tmp_path):
        cells, path = self._seed_store(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["spec"]["seed"] = 999  # spec no longer matches its key
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

        store = ResultStore(path)
        assert store.n_corrupt == 0  # lazy: counted on load
        store.load()
        assert store.n_corrupt == 1
        assert len(store.load()) == len(cells) - 1

    def test_wrong_schema_version_is_recomputed(self, tmp_path):
        cells, path = self._seed_store(tmp_path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["schema"] = 999
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")

        report = ParallelRunner(jobs=1, store=ResultStore(path)).run(cells)
        assert report.n_computed == 1

    def test_compact_rewrites_without_corruption(self, tmp_path):
        cells, path = self._seed_store(tmp_path)
        with path.open("a") as fh:
            fh.write("garbage line\n")
        store = ResultStore(path)
        report = store.compact()
        assert report.n_kept == len(cells)
        assert report.n_corrupt == 1 and report.reclaimed_bytes > 0
        fresh = ResultStore(path)
        fresh.load()
        assert fresh.n_corrupt == 0 and len(fresh.load()) == len(cells)

    def test_append_after_crash_truncated_tail(self, tmp_path):
        """A recomputed record must not glue onto a partial final line."""
        cells, path = self._seed_store(tmp_path)
        raw = path.read_bytes().rstrip(b"\n")
        path.write_bytes(raw[:-20])  # last line now partial, no newline

        store = ResultStore(path)
        report = ParallelRunner(jobs=1, store=store).run(cells)
        assert report.n_computed == 1

        fresh = ResultStore(path)
        assert len(fresh.load()) == len(cells)  # recomputed record survived
        assert fresh.n_corrupt == 1  # the partial line stayed isolated

    def test_duplicate_keys_last_record_wins(self, tmp_path):
        cells, path = self._seed_store(tmp_path)
        store = ResultStore(path)
        original = store.load()[cells[0].key()]
        doctored = CellResult(
            key=original.key,
            spec=original.spec,
            metrics=original.metrics,
            elapsed_seconds=original.elapsed_seconds + 123.0,
        )
        store.append(doctored)
        reloaded = ResultStore(path).load()
        assert reloaded[original.key].elapsed_seconds == doctored.elapsed_seconds


#: A SCOUT cell, and an EWMA serving cell with faults, tiers and shards on.
PLAIN_CELL = CellSpec(TINY_DATASET, TINY_INDEX, TINY_WORKLOAD, PrefetcherSpec("scout"), seed=3)
LAYERED_CELL = dataclasses.replace(
    PLAIN_CELL,
    workload=WorkloadSpec(n_sequences=4, n_queries=6, volume=20_000.0),
    prefetcher=PrefetcherSpec("ewma", {"lam": 0.3}),
    serve={"n_clients": 4, "mode": "hotspot", "hot_pool": 2},
    faults={"transient_rate": 0.3, "retry_limit": 0, "breaker_threshold": 1, "seed": 5},
    storage={"miss_path": "combined", "tier_pages": 8},
    shards={"n_shards": 2, "partition": "hash"},
)
#: Their metrics as the store writes them, pinned byte for byte.
PLAIN_METRICS = (
    '{"n_sequences": 2, "cache_hit_rate": 0.9178082191780822, "hit_rate_std": '
    '0.07058101472995093, "speedup": 2.5, "response_seconds": 0.031968750000000004, '
    '"cold_seconds": 0.079921875, "graph_build_seconds": 0.0037159999999999997, '
    '"prediction_seconds": 0.004038, "per_sequence_hit_rates": [0.8269230769230769, '
    '0.9680851063829787]}'
)
LAYERED_METRICS = (
    '{"n_sequences": 4, "cache_hit_rate": 0.5491525423728814, "hit_rate_std": '
    '0.3731846966828174, "speedup": 3.4999999999999996, "response_seconds": '
    '0.04972916666666667, "cold_seconds": 0.17405208333333333, "graph_build_seconds": 0.0, '
    '"prediction_seconds": 0.0, "per_sequence_hit_rates": [0.7936507936507936, '
    '0.8888888888888888, 0.8888888888888888, 0.0], "cross_client_hits": 30, '
    '"evicted_misses": 0, "failed_reads": 5, "degraded_ticks": 9, "breaker_opens": 3, '
    '"tier_hits": 34, "miss_path_hits": 14, "tier_fills": 27, "shard_requests": [52, 46], '
    '"shard_hits": [20, 23], "shard_rebalances": 0, "shard_pages_moved": 0}'
)


class TestRoundTrip:
    def test_stored_metrics_round_trip_exactly(self, tmp_path):
        cells = tiny_matrix().cells()
        path = tmp_path / "store.jsonl"
        report = ParallelRunner(jobs=1, store=ResultStore(path)).run(cells)
        reloaded = ResultStore(path).load()
        for result in report.results:
            assert reloaded[result.key].metrics == result.metrics

    def test_infinite_speedup_survives_the_store(self, tmp_path):
        # Zero residual I/O is an infinite speedup, stored as null.  No
        # run reaches it (a sequence's first query always reads from
        # disk, even under a prefetcher that knows the future), so the
        # metrics of a real cell are given one.
        result = run_cell(tiny_matrix().cells()[0])
        result = dataclasses.replace(
            result, metrics=dataclasses.replace(result.metrics, speedup=math.inf)
        )
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(result)
        reloaded = ResultStore(path).load()[result.key]
        assert math.isinf(reloaded.metrics.speedup)

    @pytest.mark.parametrize(
        "cell,line",
        [
            pytest.param(PLAIN_CELL, PLAIN_METRICS, id="plain"),
            pytest.param(LAYERED_CELL, LAYERED_METRICS, id="serving-all-layers"),
        ],
    )
    def test_stored_metrics_keep_their_bytes(self, cell, line):
        assert json.dumps(metrics_to_dict(run_cell(cell).metrics)) == line
        assert json.dumps(metrics_to_dict(metrics_from_dict(json.loads(line)))) == line

    def test_cell_key_matches_module_helper(self):
        cell = tiny_matrix().cells()[0]
        assert cell.key() == cell_key(cell.to_dict())


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
