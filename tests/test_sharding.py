"""Sharded stores and shard merging.

The contract under test: spec-hash sharding partitions any cell grid
into disjoint slices whose union is the whole grid, independent shard
sweeps followed by ``merge_stores`` reproduce a single-process run's
per-cell payloads exactly, and merging is idempotent.  ``TestSliceOf``
additionally pins that both keyed-stream splitters in the repo -- the
result store's ``shard_of`` and the sharded cache's ``hash``
partitioner -- are the one documented rule :func:`repro.util.slice_of`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.sim import (
    DatasetSpec,
    ExperimentMatrix,
    IndexSpec,
    ParallelRunner,
    PrefetcherSpec,
    ResultStore,
    ShardedResultStore,
    WorkloadSpec,
    merge_stores,
    run_cell,
    shard_of,
    shard_store_path,
)

TINY_DATASET = DatasetSpec("neuron", {"n_neurons": 6, "seed": 11})
TINY_INDEX = IndexSpec("flat", {"fanout": 16})
TINY_WORKLOAD = WorkloadSpec(n_sequences=2, n_queries=5, volume=20_000.0)

MATRIX = ExperimentMatrix(
    datasets=(TINY_DATASET,),
    indexes=(TINY_INDEX,),
    workloads=(TINY_WORKLOAD,),
    prefetchers=(
        PrefetcherSpec("none"),
        PrefetcherSpec("ewma", {"lam": 0.3}),
        PrefetcherSpec("straight-line"),
        PrefetcherSpec("polynomial"),
    ),
    seeds=(3, 4),
)


class TestShardAssignment:
    def test_shards_partition_the_grid(self):
        cells = MATRIX.cells()
        for n_shards in (1, 2, 3, 5):
            slices = [
                [c for c in cells if shard_of(c.key(), n_shards) == i]
                for i in range(n_shards)
            ]
            assert sum(len(s) for s in slices) == len(cells)
            seen = [c.key() for s in slices for c in s]
            assert len(seen) == len(set(seen))  # disjoint

    def test_assignment_is_deterministic(self):
        key = MATRIX.cells()[0].key()
        assert all(shard_of(key, 4) == shard_of(key, 4) for _ in range(10))
        assert 0 <= shard_of(key, 4) < 4

    def test_bad_shard_counts_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            shard_of("ab" * 32, 0)
        with pytest.raises(ValueError, match="shard index"):
            ShardedResultStore("s.jsonl", 2, 2)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedResultStore("s.jsonl", 0, 0)

    def test_shard_store_path_decorates_stem(self, tmp_path):
        assert shard_store_path(tmp_path / "fig10.jsonl", 0, 2).name == "fig10.shard0of2.jsonl"
        assert shard_store_path(tmp_path / "fig10", 1, 3).name == "fig10.shard1of3.jsonl"

    def test_sharded_store_refuses_foreign_cells(self, tmp_path):
        cells = MATRIX.cells()
        store = ShardedResultStore(tmp_path / "s.jsonl", 0, 2)
        foreign = next(c for c in cells if not store.owns(c.key()))
        with pytest.raises(ValueError, match="belongs to shard"):
            store.append(run_cell(foreign))


class TestSliceOf:
    """Both keyed-stream splitters stay pinned to ``repro.util.slice_of``.

    Changing the assignment rule in one call site but not the other
    would silently orphan persisted shard stores or reshuffle cache
    partitions; this class fails first.
    """

    def test_result_store_shard_of_is_slice_of(self):
        from repro.util import slice_of

        for key in (c.key() for c in MATRIX.cells()):
            for n_shards in (1, 2, 3, 7):
                assert shard_of(key, n_shards) == int(
                    slice_of(int(key[:16], 16), n_shards)
                )

    def test_hash_partitioner_is_slice_of(self):
        from repro.storage.cache import PrefetchCache
        from repro.storage.sharded import ShardedCache, ShardSpec
        from repro.util import slice_of

        k = 4
        cache = ShardedCache(
            ShardSpec(n_shards=k, partition="hash"),
            [PrefetchCache(4) for _ in range(k)],
        )
        pages = np.arange(64, dtype=np.int64)
        assert np.array_equal(cache.route_many(pages), slice_of(pages, k))
        for page in pages:
            assert cache.route(int(page)) == int(slice_of(int(page), k))

    def test_slice_of_validates_and_broadcasts(self):
        from repro.util import slice_of

        with pytest.raises(ValueError, match="n_slices"):
            slice_of(3, 0)
        routed = slice_of(np.array([0, 5, 13], dtype=np.int64), 4)
        assert routed.tolist() == [0, 1, 1]


class TestShardedSweepMerge:
    def _run_sharded(self, tmp_path, n_shards=2):
        base = tmp_path / "sweep.jsonl"
        shard_paths = []
        for i in range(n_shards):
            store = ShardedResultStore(base, i, n_shards)
            cells = [cell for cell in MATRIX.cells() if store.owns(cell.key())]
            ParallelRunner(jobs=1, store=store).run(cells)
            shard_paths.append(store.path)
        return base, shard_paths

    def test_merged_shards_match_single_process_run(self, tmp_path):
        base, shard_paths = self._run_sharded(tmp_path)
        report = merge_stores(shard_paths, base)
        assert report.n_cells == len(MATRIX.cells())
        assert report.conflict_keys == []

        full = ResultStore(tmp_path / "full.jsonl")
        ParallelRunner(jobs=1, store=full).run(MATRIX.cells())
        merged = ResultStore(base).load()
        assert set(merged) == set(full.load()) == {c.key() for c in MATRIX.cells()}
        assert all(result.ok for result in merged.values())
        for key, result in full.load().items():
            assert merged[key].metrics == result.metrics
            assert merged[key].status == result.status

    def test_merge_is_idempotent(self, tmp_path):
        base, shard_paths = self._run_sharded(tmp_path)
        merge_stores(shard_paths, base)
        first = base.read_text()
        # Re-merging the shards -- and re-merging the merge output with
        # a shard -- must not change the store.
        merge_stores(shard_paths, base)
        assert base.read_text() == first
        merge_stores([base] + shard_paths, base)
        assert base.read_text() == first

    def test_merged_store_resumes_the_full_grid(self, tmp_path):
        base, shard_paths = self._run_sharded(tmp_path)
        merge_stores(shard_paths, base)
        report = ParallelRunner(jobs=1, store=ResultStore(base)).run(MATRIX.cells())
        assert report.n_computed == 0
        assert report.n_skipped == len(MATRIX.cells())

    def test_merge_prefers_ok_over_failure_records(self, tmp_path):
        ok = run_cell(MATRIX.cells()[0])
        failure = type(ok)(
            key=ok.key,
            spec=ok.spec,
            metrics=None,
            status="failed",
            attempts=2,
            error="RuntimeError: worker died",
        )
        ok_store = ResultStore(tmp_path / "ok.jsonl")
        ok_store.append(ok)
        failed_store = ResultStore(tmp_path / "failed.jsonl")
        failed_store.append(failure)

        # Failure earlier, success later: later record wins anyway.
        merge_stores([tmp_path / "failed.jsonl", tmp_path / "ok.jsonl"], tmp_path / "m1.jsonl")
        assert ResultStore(tmp_path / "m1.jsonl").load()[ok.key].ok
        # Success earlier, failure later: the ok record must survive.
        report = merge_stores(
            [tmp_path / "ok.jsonl", tmp_path / "failed.jsonl"], tmp_path / "m2.jsonl"
        )
        assert ResultStore(tmp_path / "m2.jsonl").load()[ok.key].ok
        assert report.conflict_keys == [ok.key]

    def test_merge_requires_inputs(self, tmp_path):
        with pytest.raises(ValueError, match="at least one"):
            merge_stores([], tmp_path / "out.jsonl")

    def test_merge_refuses_all_missing_inputs(self, tmp_path):
        # Proceeding would atomically truncate an existing out store.
        out = tmp_path / "out.jsonl"
        out.write_text(json.dumps(run_cell(MATRIX.cells()[0]).to_record()) + "\n")
        with pytest.raises(ValueError, match="no input store exists"):
            merge_stores([tmp_path / "a.jsonl", tmp_path / "b.jsonl"], out)
        assert len(ResultStore(out).load()) == 1  # untouched

    def test_merge_tolerates_one_empty_shard(self, tmp_path):
        existing = ResultStore(tmp_path / "shard0.jsonl")
        existing.append(run_cell(MATRIX.cells()[0]))
        report = merge_stores(
            [tmp_path / "shard0.jsonl", tmp_path / "shard1.jsonl"], tmp_path / "out.jsonl"
        )
        assert report.n_cells == 1
        assert report.missing_inputs == [tmp_path / "shard1.jsonl"]

