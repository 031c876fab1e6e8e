"""The parallel experiment orchestrator and its persisted result store.

The contract under test: a cell's metrics are a pure function of its
spec, so (1) serial and parallel runs agree bit-for-bit, (2) a resumed
run reuses stored cells without recomputing them, and (3) corrupt or
truncated store lines are detected, dropped and recomputed.
"""

from __future__ import annotations

import json
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
from repro.sim.results import CellResult

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
        assert len(matrix) == len(cells) == 8
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
    def test_parallel_matches_serial_bit_for_bit(self):
        matrix = tiny_matrix()
        serial = ParallelRunner(jobs=1).run(matrix)
        parallel = ParallelRunner(jobs=2).run(matrix)
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
        first = ParallelRunner(jobs=1, store=ResultStore(path)).run(matrix)
        assert first.n_computed == len(matrix) and first.n_skipped == 0

        second = ParallelRunner(jobs=1, store=ResultStore(path)).run(matrix)
        assert second.n_computed == 0 and second.n_skipped == len(matrix)
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
        ParallelRunner(jobs=1, store=ResultStore(path)).run(matrix)
        report = ParallelRunner(jobs=1, store=ResultStore(path)).run(matrix, resume=False)
        assert report.n_computed == len(matrix) and report.n_skipped == 0


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
        assert len(store) == len(cells) - 1

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
        assert fresh.n_corrupt == 0 and len(fresh) == len(cells)

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
        original = store.get(cells[0].key())
        doctored = CellResult(
            key=original.key,
            spec=original.spec,
            metrics=original.metrics,
            elapsed_seconds=original.elapsed_seconds + 123.0,
        )
        store.append(doctored)
        reloaded = ResultStore(path).load()
        assert reloaded[original.key].elapsed_seconds == doctored.elapsed_seconds


class TestRoundTrip:
    def test_stored_metrics_round_trip_exactly(self, tmp_path):
        cells = tiny_matrix().cells()
        path = tmp_path / "store.jsonl"
        report = ParallelRunner(jobs=1, store=ResultStore(path)).run(cells)
        reloaded = ResultStore(path).load()
        for result in report.results:
            assert reloaded[result.key].metrics == result.metrics

    def test_infinite_speedup_survives_the_store(self, tmp_path):
        # The oracle on a fully-cacheable workload can hit every page,
        # driving residual I/O to zero and speedup to infinity.
        result = run_cell(
            CellSpec(TINY_DATASET, TINY_INDEX, TINY_WORKLOAD, PrefetcherSpec("oracle"), seed=3)
        )
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        store.append(result)
        reloaded = ResultStore(path).load()[result.key]
        assert reloaded.metrics.speedup == result.metrics.speedup

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
