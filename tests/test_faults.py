"""The fault-injection plane: plan spec, retry/backoff, breaker, recovery.

Four load-bearing guarantees are pinned here:

* **no-op transparency** -- a :class:`FaultPlan` with every rate at zero
  consumes no randomness and is *bit-identical* to the bare
  :class:`DiskModel`, both at the disk surface and through a whole
  experiment (the golden-fixture suite stays green because of this);
* **deterministic recovery** -- backoff sequences are a pure function of
  the plan seed, bounded by ``max_backoff_s``, and charged as simulated
  time (never wall-clock sleeps);
* **breaker trajectory** -- closed → open → half-open → closed under the
  documented thresholds, purely counter-driven;
* **accounting under faults** -- per-client ``shared_hits`` /
  ``shared_misses`` / ``failed_reads`` still partition the shared
  cache's totals exactly, and the scheduler stays bit-identical to its
  round-robin oracle with faults active.
"""

from __future__ import annotations

import os
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import EWMAPrefetcher
from repro.sim import QuerySession, SimulationConfig, SimulationEngine, run_experiment
from repro.sim.results import ResultStore, merge_stores
from repro.sim.runner import (
    CellSpec,
    DatasetSpec,
    IndexSpec,
    PrefetcherSpec,
    WorkloadSpec,
    _layer_spec,
    prepare_serving_cell,
    run_serving_cell,
)
from repro.sim.serve import ServingSimulator
from repro.storage import CircuitBreaker, DiskModel, FaultPlan, FaultyDiskModel, ReadFailure
from repro.storage.faults import BACKOFF_BASE_S, BACKOFF_CAP_S
from repro.workload import generate_sequences
from tests.oracles.serving import RoundRobinSimulator


def max_backoff_s(plan: FaultPlan) -> float:
    """Upper bound on one read's total jittered backoff time."""
    total = 0.0
    for attempt in range(plan.retry_limit):
        total += min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2.0**attempt)
    return 1.5 * total


# -- FaultPlan spec ----------------------------------------------------------------


class TestFaultPlan:
    def test_round_trip(self):
        plan = FaultPlan(transient_rate=0.2, corrupt_rate=0.1, seed=9, breaker=False)
        assert _layer_spec("faults", asdict(plan)) == plan

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown faults key"):
            _layer_spec("faults", {"transient_rate": 0.1, "flaky_rate": 0.5})

    @pytest.mark.parametrize("key", ["stuck_rate", "stuck_reads", "stuck_extra_s"])
    def test_stuck_disk_kind_is_gone(self, key):
        with pytest.raises(ValueError, match=rf"unknown faults key\(s\) \['{key}'\]"):
            _layer_spec("faults", {key: 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transient_rate": 1.5},
            {"corrupt_rate": -0.1},
            {"retry_limit": -1},
            {"breaker_threshold": 0},
            {"latency_rate": 1.01},
            {"breaker_cooldown": 0},
        ],
    )
    def test_validates_fields(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_active_only_with_nonzero_rate(self):
        assert not FaultPlan().active
        assert not FaultPlan(seed=5, breaker=False).active
        assert FaultPlan(latency_rate=0.01).active

    def test_max_backoff_caps_the_exponential(self):
        disk = FaultyDiskModel(plan=FaultPlan(transient_rate=1.0, retry_limit=8))
        # Uncapped, retry 7's shortest jittered delay (0.5x) would exceed
        # the longest capped one (just under 1.5x the cap).
        assert 0.5 * BACKOFF_BASE_S * 2.0**7 > 1.5 * BACKOFF_CAP_S
        for retry in range(8):
            assert disk._backoff_delay(retry) < 1.5 * BACKOFF_CAP_S
        with pytest.raises(ReadFailure) as caught:
            disk.read_pages([1])
        assert 0.0 < caught.value.seconds <= max_backoff_s(disk.plan)


# -- no-op transparency ------------------------------------------------------------


class TestNoOpTransparency:
    @settings(deadline=None, max_examples=25)
    @given(st.lists(st.lists(st.integers(0, 400), min_size=0, max_size=12), max_size=8))
    def test_noop_plan_is_bit_identical_to_bare_disk(self, batches):
        bare, faulty = DiskModel(), FaultyDiskModel(plan=FaultPlan())
        for batch in batches:
            assert faulty.read_pages(batch) == bare.read_pages(batch)
        assert asdict(faulty._inner.stats) == asdict(bare.stats)

    def test_noop_plan_experiment_matches_plain_config(self, tissue, tissue_flat):
        sequences = generate_sequences(
            tissue, n_sequences=2, seed=3, n_queries=6, volume=60_000.0
        )
        plain = run_experiment(
            tissue_flat, sequences, EWMAPrefetcher(lam=0.3), SimulationConfig()
        )
        faulted = run_experiment(
            tissue_flat,
            sequences,
            EWMAPrefetcher(lam=0.3),
            SimulationConfig(faults=FaultPlan()),
        )
        assert asdict(plain.metrics) == asdict(faulted.metrics)

    def test_zero_rate_kinds_consume_no_randomness(self):
        # Enabling one kind must not perturb another's draw sequence:
        # transient-only and transient+latency plans see identical
        # transient draws at the same seed.
        lone = FaultyDiskModel(plan=FaultPlan(transient_rate=0.3, seed=4))
        mixed = FaultyDiskModel(
            plan=FaultPlan(transient_rate=0.3, latency_rate=0.5, seed=4)
        )
        for batch in ([1, 2], [9], [3, 4, 5], [7], [8, 10]):
            try:
                lone_cost = lone.read_pages(batch)
            except ReadFailure:
                with pytest.raises(ReadFailure):
                    mixed.read_pages(batch)
                continue
            mixed_cost = mixed.read_pages(batch)
            assert mixed_cost >= lone_cost
        assert lone._inner.stats.transient_errors == mixed._inner.stats.transient_errors
        assert lone._inner.stats.backoff_seconds == mixed._inner.stats.backoff_seconds


# -- retry/backoff -----------------------------------------------------------------


class TestRetryBackoff:
    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 2**31 - 1), rate=st.floats(0.05, 0.9))
    def test_deterministic_given_seed_and_bounded(self, seed, rate):
        plan = FaultPlan(transient_rate=rate, seed=seed)
        runs = []
        for _ in range(2):
            disk = FaultyDiskModel(plan=plan)
            costs = []
            for batch in ([1, 2, 3], [5], [4, 6], [2], [8, 9]):
                try:
                    costs.append(disk.read_pages(batch))
                except ReadFailure as failure:
                    costs.append(("fail", failure.seconds))
            runs.append((costs, asdict(disk._inner.stats)))
        assert runs[0] == runs[1]
        # Every read's total backoff obeys the plan's analytic bound.
        stats = runs[0][1]
        n_reads = 5
        assert stats["backoff_seconds"] <= n_reads * max_backoff_s(plan) + 1e-12

    def test_exhausted_retries_raise_and_charge(self):
        plan = FaultPlan(transient_rate=1.0, retry_limit=2, seed=0)
        disk = FaultyDiskModel(plan=plan)
        with pytest.raises(ReadFailure) as caught:
            disk.read_pages([1, 2])
        failure = caught.value
        assert failure.pages == [1, 2]
        assert 0.0 < failure.seconds <= max_backoff_s(plan)
        assert disk._inner.stats.retries_exhausted == 1
        assert disk._inner.stats.retries == plan.retry_limit
        assert disk._inner.stats.seconds_busy == pytest.approx(failure.seconds)
        # No pages were actually read.
        assert disk._inner.stats.pages_read == 0

    def test_recovered_retries_count_and_charge_backoff(self):
        plan = FaultPlan(transient_rate=0.6, seed=1)
        disk = FaultyDiskModel(plan=plan)
        recovered = 0
        for batch in ([1], [2], [3], [4], [5], [6], [7], [8]):
            try:
                disk.read_pages(batch)
            except ReadFailure:
                pass
        recovered = disk._inner.stats.retries_recovered
        assert recovered > 0
        assert disk._inner.stats.backoff_seconds > 0.0
        assert disk._inner.stats.transient_errors >= disk._inner.stats.retries

    def test_recover_read_is_clean_and_counted(self):
        disk = FaultyDiskModel(plan=FaultPlan(transient_rate=1.0, retry_limit=0))
        with pytest.raises(ReadFailure):
            disk.read_pages([3, 4])
        cost = disk.recover_read([3, 4])
        assert cost > 0.0
        assert disk._inner.stats.reread_pages == 2
        assert disk._inner.stats.pages_read == 2


# -- read-repair -------------------------------------------------------------------


class TestReadRepair:
    def test_corrupt_pages_detected_and_reread(self, tissue_flat):
        page_table = tissue_flat.page_table
        disk = FaultyDiskModel(plan=FaultPlan(corrupt_rate=1.0, seed=2))
        pages = [0, 1, 2]
        disk.read_pages(pages)
        repair_cost = disk.verify_delivery(pages, page_table)
        assert repair_cost > 0.0
        assert disk._inner.stats.corrupt_detected == len(pages)
        assert disk._inner.stats.reread_pages == len(pages)
        # The taint set is consumed: verifying again is free.
        assert disk.verify_delivery(pages, page_table) == 0.0

    def test_clean_reads_verify_for_free(self, tissue_flat):
        disk = FaultyDiskModel(plan=FaultPlan(corrupt_rate=0.0))
        disk.read_pages([0, 1])
        assert disk.verify_delivery([0, 1], tissue_flat.page_table) == 0.0
        assert disk._inner.stats.corrupt_detected == 0


# -- circuit breaker ---------------------------------------------------------------


class TestCircuitBreaker:
    def test_rejects_zero_threshold_or_cooldown(self):
        for threshold, cooldown in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="threshold and cooldown"):
                CircuitBreaker(threshold=threshold, cooldown=cooldown)

    def test_closed_open_half_open_closed(self):
        breaker = CircuitBreaker(threshold=2, cooldown=3)
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1
        # Cooldown burns one query per allow_prefetch() call.
        assert not breaker.allow_prefetch()
        assert not breaker.allow_prefetch()
        assert breaker.allow_prefetch()  # cooldown exhausted -> half-open probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.half_opens == 1
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.closes == 1

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(threshold=1, cooldown=1)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.allow_prefetch()  # cooldown=1 -> immediate probe
        breaker.record_failure()  # probe fails
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 2

    def test_success_resets_the_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2, cooldown=1)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    @settings(deadline=None, max_examples=30)
    @given(
        outcomes=st.lists(st.booleans(), min_size=1, max_size=60),
        threshold=st.integers(1, 4),
        cooldown=st.integers(1, 4),
    )
    def test_trajectory_is_deterministic_and_consistent(self, outcomes, threshold, cooldown):
        runs = []
        for _ in range(2):
            breaker = CircuitBreaker(threshold=threshold, cooldown=cooldown)
            trace = []
            for ok in outcomes:
                allowed = breaker.allow_prefetch()
                trace.append((allowed, breaker.state))
                if allowed:
                    (breaker.record_success if ok else breaker.record_failure)()
            runs.append((trace, breaker.opens, breaker.half_opens, breaker.closes))
        assert runs[0] == runs[1]
        trace, opens, half_opens, closes = runs[0]
        # A denied query only ever happens with the breaker open, and
        # every close was preceded by a half-open probe.
        assert all(state == CircuitBreaker.OPEN for allowed, state in trace if not allowed)
        assert closes <= half_opens <= opens

    @pytest.mark.parametrize("cooldown", [1, 2, 3, 4])
    def test_a_trip_degrades_cooldown_minus_one_queries(self, tissue, tissue_flat, cooldown):
        """Session level: between a trip and its probe, ``cooldown - 1``
        queries are served degraded."""
        plan = FaultPlan(transient_rate=1.0, breaker_threshold=1, breaker_cooldown=cooldown)
        config = SimulationConfig(faults=plan)
        (sequence,) = generate_sequences(
            tissue, n_sequences=1, seed=3, n_queries=40, volume=60_000.0
        )
        session = QuerySession(
            SimulationEngine(tissue_flat, config), sequence, EWMAPrefetcher(lam=0.3)
        )
        assert isinstance(session.disk, FaultyDiskModel)
        mine = session.client_metrics
        runs, run = [], None
        while not session.done:
            degraded, opens = mine.degraded_ticks, mine.breaker_opens
            session.step_query()
            if mine.degraded_ticks > degraded:
                run += 1
            elif run is not None:
                runs.append(run)  # this query was the probe
                run = None
            if mine.breaker_opens > opens:
                run = 0
        assert len(runs) >= 3
        assert runs == [cooldown - 1] * len(runs)


# -- serving under faults ----------------------------------------------------------


def chaos_cell(rate: float, *, breaker: bool = True, n_clients: int = 3) -> CellSpec:
    return CellSpec(
        dataset=DatasetSpec("neuron", {"n_neurons": 8, "seed": 7}),
        index=IndexSpec("flat", {"fanout": 16}),
        workload=WorkloadSpec(
            n_sequences=n_clients, n_queries=8, volume=60_000.0,
            gap=0.0, aspect="cube", window_ratio=1.0,
        ),
        prefetcher=PrefetcherSpec("ewma", {"lam": 0.3}),
        seed=21,
        serve={"n_clients": n_clients, "mode": "hotspot", "stagger": 1},
        faults={
            "transient_rate": rate,
            "corrupt_rate": rate / 2.0,
            "latency_rate": rate / 2.0,
            "seed": 11,
            "breaker": breaker,
        },
    )


class TestServingUnderFaults:
    @pytest.mark.parametrize("rate", [0.3, 0.7])
    def test_partition_holds_with_failed_reads(self, rate):
        index, clients, prefetchers, config = prepare_serving_cell(chaos_cell(rate))
        report = ServingSimulator(index, config).run(clients, prefetchers)
        hits = sum(c.shared_hits for c in report.clients)
        misses = sum(c.shared_misses for c in report.clients)
        failed = sum(c.failed_reads for c in report.clients)
        assert hits == report.cache_hits
        assert misses + failed == report.cache_misses

    def test_round_robin_and_lockstep_identical_under_faults(self):
        spec = chaos_cell(0.7)
        index, clients, prefetchers, config = prepare_serving_cell(spec)
        reference = RoundRobinSimulator(index, config).run(clients, prefetchers)
        _, fresh_clients, fresh_prefetchers, _ = prepare_serving_cell(spec)
        vectorized = ServingSimulator(index, config).run(fresh_clients, fresh_prefetchers)
        assert asdict(reference) == asdict(vectorized)

    def test_breaker_degrades_and_surfaces_counters(self):
        spec = chaos_cell(0.7)
        index, clients, prefetchers, config = prepare_serving_cell(spec)
        report = ServingSimulator(index, config).run(clients, prefetchers)
        assert report.faults_active
        assert report.breaker_opens > 0
        assert report.degraded_ticks > 0
        pooled = report.to_aggregate()
        assert pooled.degraded_ticks == report.degraded_ticks
        assert pooled.breaker_opens == report.breaker_opens
        assert pooled.failed_reads == report.failed_reads

    def test_breaker_off_never_degrades(self):
        spec = chaos_cell(0.7, breaker=False)
        index, clients, prefetchers, config = prepare_serving_cell(spec)
        report = ServingSimulator(index, config).run(clients, prefetchers)
        assert report.breaker_opens == 0
        assert report.degraded_ticks == 0


# -- the store round trip ----------------------------------------------------------


class TestFaultSpecPersistence:
    def test_faultless_spec_dict_has_no_faults_key(self):
        spec = chaos_cell(0.5)
        bare = CellSpec(
            dataset=spec.dataset, index=spec.index, workload=spec.workload,
            prefetcher=spec.prefetcher, seed=spec.seed, serve=spec.serve,
        )
        assert "faults" not in bare.to_dict()  # pre-fault cell keys survive
        assert "faults" in spec.to_dict()
        assert spec.key() != bare.key()

    def test_spec_round_trips_through_store(self, tmp_path):
        spec = chaos_cell(0.5)
        result, report = run_serving_cell(spec)
        assert result.ok
        assert result.metrics.failed_reads is not None
        ResultStore(tmp_path / "chaos.jsonl").append(result)
        loaded = ResultStore(tmp_path / "chaos.jsonl").load()[spec.key()]
        assert loaded.spec == spec.to_dict()
        assert CellSpec.from_dict(loaded.spec) == spec
        assert asdict(loaded.metrics) == asdict(result.metrics)
        # Reproducible from the spec alone, as any stored cell must be.
        rerun, _ = run_serving_cell(CellSpec.from_dict(loaded.spec))
        assert asdict(rerun.metrics) == asdict(loaded.metrics)


# -- store durability (torn final line) ---------------------------------------------


class TestTornLineRecovery:
    def write_two_cells(self, path):
        spec_a, spec_b = chaos_cell(0.0), chaos_cell(0.5)
        result_a, _ = run_serving_cell(spec_a)
        result_b, _ = run_serving_cell(spec_b)
        store = ResultStore(path)
        store.append(result_a)
        store.append(result_b)
        return spec_a, spec_b

    def test_torn_final_line_counts_corrupt_not_abort(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        spec_a, _ = self.write_two_cells(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # tear the tail mid-record
        store = ResultStore(path)
        results = store.load()
        assert store.n_corrupt >= 1
        assert spec_a.key() in results

    def test_torn_multibyte_line_does_not_abort(self, tmp_path):
        # A crash can cut a UTF-8 sequence in half; text-mode decoding of
        # the whole file would raise before json ever saw the line.
        path = tmp_path / "torn_utf8.jsonl"
        good = b'{"key": "k1", "spec": {}, "metrics": null, "status": "failed", "error": "x"}\n'
        torn = '{"key": "k2", "error": "café"'.encode()[:-1]
        path.write_bytes(good + torn)
        store = ResultStore(path)
        store.load()
        assert store.n_lines == 2
        assert store.n_corrupt >= 1

    def test_append_is_readable_by_an_independent_handle_when_it_returns(self, tmp_path):
        path = tmp_path / "durable.jsonl"
        spec = chaos_cell(0.0)
        result, _ = run_serving_cell(spec)
        ResultStore(path).append(result)
        assert spec.key() in ResultStore(path).load()

    @pytest.mark.parametrize("rewrite", ["compact", "merge"])
    def test_rewrite_syncs_the_whole_tmp_file_before_renaming_it(
        self, tmp_path, monkeypatch, rewrite
    ):
        # Renaming an unsynced tmp file can reach the disk before its
        # data: after power loss the store would come back truncated.
        path = tmp_path / "store.jsonl"
        self.write_two_cells(path)
        calls = []
        real_replace = Path.replace

        def fsync(fd):
            calls.append(("fsync", os.fstat(fd).st_ino, os.fstat(fd).st_size))

        def replace(self, target):
            calls.append(("replace", self.stat().st_ino, self.stat().st_size))
            return real_replace(self, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        if rewrite == "compact":
            ResultStore(path).compact()
        else:
            merge_stores([path], path)
        (synced, *file_synced), (renamed, *file_renamed) = calls
        assert (synced, renamed) == ("fsync", "replace")
        assert file_synced == file_renamed == [path.stat().st_ino, path.stat().st_size]
