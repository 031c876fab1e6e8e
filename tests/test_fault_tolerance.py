"""Fault tolerance of the sweep orchestrator.

The contract under test: a crashing or hung cell (1) gets a bounded
number of retries, (2) is recorded in the store as a ``status:
failed|timeout`` envelope instead of aborting the sweep, and (3) is
retried -- not skipped -- on the next resume, so a store converges on
all-ok as causes are fixed.  Only schema-2 lines load: any other
schema version or envelope mismatch is classified stale (recomputed),
never rendered.  A worker that dies *hard* (``os._exit``, simulating an OOM
kill or segfault) breaks the process pool; the runner must respawn it,
re-enqueue the in-flight cells with one attempt charged, and finish the
sweep.  The failing cells are built from the fault-injection kinds of
``tests/oracles/faults.py``, registered with the runner on import.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.sim import runner
from repro.sim import (
    CellResult,
    CellSpec,
    DatasetSpec,
    IndexSpec,
    ParallelRunner,
    PrefetcherSpec,
    ResultStore,
    WorkloadSpec,
    run_cell,
)
from repro.sim.metrics import BASE_METRICS
from tests.oracles import faults

# The ``_sleep`` / ``_fail`` / ``_exit`` kinds the cells below inject.
faults.register()

TINY_DATASET = DatasetSpec("neuron", {"n_neurons": 6, "seed": 11})
TINY_INDEX = IndexSpec("flat", {"fanout": 16})
TINY_WORKLOAD = WorkloadSpec(n_sequences=2, n_queries=5, volume=20_000.0)


def cell(prefetcher: PrefetcherSpec) -> CellSpec:
    return CellSpec(TINY_DATASET, TINY_INDEX, TINY_WORKLOAD, prefetcher, seed=3)


OK_CELL = cell(PrefetcherSpec("none"))
HANGING_CELL = cell(PrefetcherSpec("_sleep", {"seconds": 60.0}))
RAISING_CELL = cell(PrefetcherSpec("_fail", {"message": "injected kaboom"}))


class TestFailureEnvelope:
    def test_raising_cell_recorded_not_raised(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        report = ParallelRunner(jobs=1, store=store, retries=0).run([RAISING_CELL, OK_CELL])
        failed, ok = report.results
        assert failed.status == "failed" and not failed.ok
        assert failed.metrics is None
        assert "injected kaboom" in failed.error
        assert ok.ok and ok.metrics is not None
        assert report.n_failed == 1 and report.n_computed == 1
        assert report.failed_keys == [RAISING_CELL.key()]

    def test_retries_counted_in_envelope(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        report = ParallelRunner(jobs=1, store=store, retries=2).run([RAISING_CELL])
        assert report.results[0].attempts == 3

    def test_failure_record_round_trips_through_store(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ParallelRunner(jobs=1, store=ResultStore(path), retries=0).run([RAISING_CELL])
        reloaded = ResultStore(path).load()[RAISING_CELL.key()]
        assert reloaded.status == "failed"
        assert reloaded.metrics is None
        assert "injected kaboom" in reloaded.error

    def test_resume_retries_failures_but_skips_ok(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ParallelRunner(jobs=1, store=ResultStore(path), retries=0).run([RAISING_CELL, OK_CELL])
        report = ParallelRunner(jobs=1, store=ResultStore(path), retries=0).run(
            [RAISING_CELL, OK_CELL]
        )
        assert report.skipped_keys == [OK_CELL.key()]
        assert report.failed_keys == [RAISING_CELL.key()]

    def test_transient_failure_succeeds_on_retry(self, tmp_path):
        flaky = cell(PrefetcherSpec("_fail", {"once_flag": str(tmp_path / "flag")}))
        report = ParallelRunner(jobs=1, retries=1).run([flaky])
        result = report.results[0]
        assert result.ok and result.attempts == 2
        assert report.n_computed == 1 and report.n_failed == 0

    @pytest.mark.usefixtures("start_method")
    def test_pooled_failures_do_not_abort_siblings(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        report = ParallelRunner(jobs=2, store=store, retries=0).run(
            [RAISING_CELL, OK_CELL, cell(PrefetcherSpec("straight-line"))]
        )
        assert report.n_failed == 1 and report.n_computed == 2
        assert all(r.ok for r in report.results[1:])

    def test_invalid_envelope_states_rejected(self):
        ok = run_cell(OK_CELL)
        with pytest.raises(ValueError, match="status"):
            CellResult(key=ok.key, spec=ok.spec, metrics=ok.metrics, status="exploded")
        with pytest.raises(ValueError, match="inconsistent"):
            CellResult(key=ok.key, spec=ok.spec, metrics=None, status="ok")
        with pytest.raises(ValueError, match="inconsistent"):
            CellResult(key=ok.key, spec=ok.spec, metrics=ok.metrics, status="failed")


class TestTimeouts:
    def test_hanging_cell_times_out_and_sweep_continues(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        report = ParallelRunner(jobs=1, store=store, timeout=0.3, retries=1).run(
            [HANGING_CELL, OK_CELL]
        )
        hung, ok = report.results
        assert hung.status == "timeout"
        assert hung.attempts == 2  # retried once before giving up
        assert "timeout" in hung.error.lower()
        assert ok.ok

    @pytest.mark.usefixtures("start_method")
    def test_pooled_hanging_cell_times_out(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        report = ParallelRunner(jobs=2, store=store, timeout=0.3, retries=0).run(
            [HANGING_CELL, OK_CELL]
        )
        by_key = {r.key: r for r in report.results}
        assert by_key[HANGING_CELL.key()].status == "timeout"
        assert by_key[OK_CELL.key()].ok

    @pytest.mark.usefixtures("start_method")
    def test_pooled_failure_elapsed_excludes_queue_wait(self, tmp_path):
        # With jobs=1 worth of slots busy, a queued cell waits; its
        # failure envelope must still record execution time (~timeout
        # per attempt), not time-since-submit.
        report = ParallelRunner(jobs=2, timeout=0.3, retries=0).run(
            [HANGING_CELL, cell(PrefetcherSpec("_sleep", {"seconds": 61.0})), OK_CELL]
        )
        for result in report.results[:2]:
            assert result.status == "timeout"
            assert result.elapsed_seconds < 5.0

    def test_timeout_leaves_fast_cells_untouched(self):
        generous = ParallelRunner(jobs=1, timeout=120.0).run([OK_CELL]).results[0]
        unlimited = ParallelRunner(jobs=1).run([OK_CELL]).results[0]
        assert generous.ok
        assert generous.metrics == unlimited.metrics

    def test_runner_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelRunner(jobs=0)
        with pytest.raises(ValueError, match="timeout"):
            ParallelRunner(timeout=0)
        with pytest.raises(ValueError, match="retries"):
            ParallelRunner(retries=-1)


@pytest.mark.usefixtures("start_method")
class TestOneLedger:
    """Serial and pooled attempts settle through the same ledger."""

    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_serial_and_pooled_envelopes_agree(self, tmp_path, retries):
        flag = tmp_path / "flag"
        flaky = cell(PrefetcherSpec("_fail", {"once_flag": str(flag)}))

        def envelopes(jobs):
            flag.unlink(missing_ok=True)
            runner = ParallelRunner(jobs=jobs, timeout=0.5, retries=retries)
            report = runner.run([flaky, HANGING_CELL, RAISING_CELL, OK_CELL])
            return [(r.status, r.attempts, r.error) for r in report.results]

        serial = envelopes(1)
        assert serial == envelopes(2)
        first_try_only = ("failed", 1, "RuntimeError: injected cell failure")
        assert serial == [
            first_try_only if retries == 0 else ("ok", 2, None),
            ("timeout", retries + 1, "CellTimeoutError: cell exceeded its wall-clock timeout"),
            ("failed", retries + 1, "RuntimeError: injected kaboom"),
            ("ok", 1, None),
        ]


@pytest.mark.usefixtures("start_method")
class TestPoolCrashes:
    """A worker killed mid-sweep must not abort the run."""

    def test_killed_worker_respawns_pool_and_sweep_completes(self, tmp_path):
        # The killer dies once (the flag file survives the respawned
        # pool), with a delay so the sibling finishes its first attempt
        # before the crash; every cell must still end up ok.
        killer = cell(
            PrefetcherSpec("_exit", {"once_flag": str(tmp_path / "flag"), "seconds": 0.5})
        )
        store = ResultStore(tmp_path / "store.jsonl")
        report = ParallelRunner(jobs=2, store=store, retries=2).run([killer, OK_CELL])

        assert report.pool_crashes == 1
        assert all(result.ok for result in report.results)
        assert report.n_failed == 0
        # The whole outcome is durable: a fresh reader sees only ok cells.
        reloaded = ResultStore(tmp_path / "store.jsonl").load()
        assert {key for key in reloaded} == {killer.key(), OK_CELL.key()}
        assert all(result.ok for result in reloaded.values())

    def test_crash_looping_cell_exhausts_attempts(self, tmp_path):
        # No flag: the cell kills its worker on every attempt.  Attempt
        # accounting must bound the crash loop and record an envelope.
        # (Run alone so no sibling races the crash; sibling survival is
        # covered deterministically by the once_flag test above.)
        killer = cell(PrefetcherSpec("_exit", {}))
        store = ResultStore(tmp_path / "store.jsonl")
        report = ParallelRunner(jobs=2, store=store, retries=1).run([killer])

        assert report.pool_crashes == 2  # one breakage per attempt
        dead = report.results[0]
        assert dead.status == "failed" and dead.attempts == 2
        assert "BrokenProcessPool" in dead.error
        # The envelope is durable, so the next resume retries the cell.
        reloaded = ResultStore(tmp_path / "store.jsonl").load()[killer.key()]
        assert reloaded.status == "failed"

    def test_single_cell_with_jobs_gt_1_stays_isolated(self, tmp_path):
        # A one-cell batch (e.g. a resume retrying the only failure)
        # must still run in a worker process: run serially, a hard crash
        # would kill the orchestrator itself.
        killer = cell(PrefetcherSpec("_exit", {}))
        report = ParallelRunner(jobs=2, retries=0).run([killer])
        assert report.results[0].status == "failed"
        assert report.pool_crashes == 1


class _ScriptedPool:
    """``ProcessPoolExecutor`` in-process, each submit's outcome scripted.

    One step per ``submit`` (shared by every pool of a run; ``"run"``
    once spent): ``"run"`` resolves the cell in-process, ``"refuse"``
    makes ``submit`` raise ``BrokenProcessPool`` (the pool broke before
    the runner saw it), ``"crash"`` fails the future with
    ``BrokenProcessPool``, ``"garbled"`` with another error (a result
    that cannot unpickle).
    """

    def __init__(self, steps: list[str]) -> None:
        self.steps = steps

    def submit(self, fn, *args):
        step = self.steps.pop(0) if self.steps else "run"
        if step == "refuse":
            raise BrokenProcessPool("scripted")
        future = Future()
        if step == "run":
            future.set_result(fn(*args))
        elif step == "crash":
            future.set_exception(BrokenProcessPool("scripted"))
        else:
            future.set_exception(RuntimeError("garbled"))
        return future

    def shutdown(self, wait=True, cancel_futures=False) -> None:
        pass


THREE_CELLS = [OK_CELL, cell(PrefetcherSpec("straight-line")), cell(PrefetcherSpec("ewma"))]


class TestPoolRaces:
    """What a real pool does only by timing, made deterministic."""

    def _script(self, monkeypatch, steps: list[str]) -> None:
        monkeypatch.setattr(
            runner, "ProcessPoolExecutor", lambda max_workers, mp_context: _ScriptedPool(steps)
        )

    def test_a_pool_broken_before_a_submit_carries_the_cell_over(self, monkeypatch):
        self._script(monkeypatch, ["run", "refuse"])
        report = ParallelRunner(jobs=2, retries=0).run(THREE_CELLS)
        assert report.pool_crashes == 1
        assert [(r.ok, r.attempts) for r in report.results] == [(True, 1)] * 3

    def test_the_drain_keeps_what_settled_after_the_crash_was_seen(self, monkeypatch):
        """``wait`` may return on the first settled future before the
        others are seen settled: the drain finds one result, one crash."""
        self._script(monkeypatch, ["crash", "run", "crash"])
        first_only = lambda pending, return_when: ({next(iter(pending))}, set())  # noqa: E731
        monkeypatch.setattr(runner, "wait", first_only)
        report = ParallelRunner(jobs=2, retries=1).run(THREE_CELLS)
        assert report.pool_crashes == 1
        assert [(r.ok, r.attempts) for r in report.results] == [(True, 2), (True, 1), (True, 2)]

    def test_a_result_that_cannot_be_read_is_a_failed_attempt(self, monkeypatch):
        self._script(monkeypatch, ["garbled"])
        (result,) = ParallelRunner(jobs=2, retries=0).run([OK_CELL]).results
        assert (result.status, result.attempts) == ("failed", 1)
        assert result.error == "RuntimeError: garbled"


class TestSchemaCompatibility:
    def _stored(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ParallelRunner(jobs=1, store=ResultStore(path)).run([OK_CELL])
        return path

    def _schema1_line(self, path):
        record = json.loads(path.read_text())
        for legacy_unknown in ("status", "attempts", "error"):
            record.pop(legacy_unknown)
        record["schema"] = 1
        return json.dumps(record) + "\n"

    def test_schema1_record_is_stale_and_recomputed(self, tmp_path):
        path = self._stored(tmp_path)
        path.write_text(self._schema1_line(path))

        store = ResultStore(path)
        assert OK_CELL.key() not in store.load()
        assert store.n_stale == 1 and store.n_corrupt == 0

        report = ParallelRunner(jobs=1, store=store).run([OK_CELL])
        assert report.n_computed == 1 and report.n_skipped == 0
        assert ResultStore(path).load()[OK_CELL.key()].ok

    @pytest.mark.parametrize("key", [name for name, _ in BASE_METRICS])
    def test_missing_metric_key_is_stale_not_corrupt(self, tmp_path, key):
        path = self._stored(tmp_path)
        record = json.loads(path.read_text())
        del record["metrics"][key]  # written by an older revision
        path.write_text(json.dumps(record) + "\n")

        store = ResultStore(path)
        assert store.load() == {}
        assert store.n_stale == 1 and store.n_corrupt == 0

        # The stale cell is recomputed, not rendered from the old row.
        report = ParallelRunner(jobs=1, store=store).run([OK_CELL])
        assert report.n_computed == 1 and report.n_skipped == 0

    def test_unknown_schema_version_is_stale(self, tmp_path):
        path = self._stored(tmp_path)
        record = json.loads(path.read_text())
        record["schema"] = 999
        path.write_text(json.dumps(record) + "\n")

        store = ResultStore(path)
        store.load()
        assert store.n_stale == 1 and store.n_corrupt == 0

    @pytest.mark.parametrize(
        ("damage", "corrupt", "stale"),
        [
            pytest.param(lambda record: [record], 1, 0, id="not-a-dict"),
            pytest.param(lambda record: {**record, "key": 7}, 1, 0, id="key-not-a-string"),
            pytest.param(lambda record: {**record, "status": "exploded"}, 0, 1, id="bad-status"),
            pytest.param(lambda record: {**record, "attempts": "1"}, 0, 1, id="bad-attempts"),
            pytest.param(lambda record: {**record, "metrics": None}, 0, 1, id="ok-no-metrics"),
            pytest.param(
                lambda record: {**record, "elapsed_seconds": "fast"}, 1, 0, id="from-record-fails"
            ),
        ],
    )
    def test_each_damaged_record_is_counted_once(self, tmp_path, damage, corrupt, stale):
        path = self._stored(tmp_path)
        damaged = damage(json.loads(path.read_text()))
        path.write_text(json.dumps(damaged) + "\n")
        store = ResultStore(path)
        assert store.load() == {}
        assert (store.n_corrupt, store.n_stale, store.n_lines) == (corrupt, stale, 1)

    def test_blank_lines_are_not_records(self, tmp_path):
        path = self._stored(tmp_path)
        path.write_text("\n  \n" + path.read_text() + "\n")
        store = ResultStore(path)
        assert list(store.load()) == [OK_CELL.key()]
        assert (store.n_corrupt, store.n_stale, store.n_lines) == (0, 0, 1)

    def test_garbled_line_is_corrupt_not_stale(self, tmp_path):
        path = self._stored(tmp_path)
        path.write_text("{ not json\n")
        store = ResultStore(path)
        store.load()
        assert store.n_corrupt == 1 and store.n_stale == 0

    def test_compact_drops_schema1_records_as_stale(self, tmp_path):
        path = self._stored(tmp_path)
        current = path.read_text()
        path.write_text(self._schema1_line(path) + current)

        report = ResultStore(path).compact()
        assert report.n_kept == 1 and report.n_stale == 1
        assert report.reclaimed_bytes > 0
        assert path.read_text() == current

    def test_compact_clears_stale_counts(self, tmp_path):
        path = self._stored(tmp_path)
        record = json.loads(path.read_text())
        record["schema"] = 999
        with path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        store = ResultStore(path)
        report = store.compact()
        assert report.n_kept == 1 and report.n_stale == 1
        assert report.reclaimed_bytes > 0
        fresh = ResultStore(path)
        fresh.load()
        assert fresh.n_stale == 0 and fresh.n_corrupt == 0
