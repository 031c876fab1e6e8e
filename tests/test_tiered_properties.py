"""Differential test plane for the tiered storage subsystem.

The tentpole guarantee of DESIGN.md §9 is *pass-through identity*: a
:class:`~repro.storage.tiered.TieredStore` built from the default
(disabled) :class:`~repro.storage.tiered.StorageSpec` must be
bit-identical to the bare :class:`~repro.storage.disk.DiskModel` it
wraps -- every return value, every stat, after every operation.  The
differential properties here let hypothesis search the operation space
for a divergence; the serving-level tests then lift the guarantee to
whole :class:`~repro.sim.serve.ServingSimulator` reports and prove the
two schedulers stay bit-identical *with* tiering enabled.

The second family of properties checks the layer accounting itself:
each requested page resolves at exactly one layer, so the counters
partition the request stream (``requests == tier hits + mechanism hits
+ backing fills``) under every miss-path mechanism and any operation
sequence hypothesis can produce.
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.disk import DiskModel
from repro.storage.tiered import (
    MISS_PATHS,
    StorageSpec,
    TierStats,
    TieredStore,
    make_storage,
)

#: Small page universe so read batches collide (tier hits, victim
#: swap-backs, stream-buffer pickups on page+1 runs).
page_ids = st.integers(min_value=0, max_value=24)
batches = st.lists(page_ids, min_size=0, max_size=8)

#: Operation mix covering the full shared disk surface.
operations = st.lists(
    st.one_of(
        st.tuples(st.just("read"), batches),
        st.tuples(st.just("trim"), batches),
        st.tuples(st.just("cost"), batches),
        st.tuples(st.just("estimate"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("reset_head"), st.none()),
        st.tuples(st.just("reset_stats"), st.none()),
    ),
    max_size=30,
)

active_specs = st.builds(
    StorageSpec,
    miss_path=st.sampled_from(MISS_PATHS),
    tier_pages=st.integers(min_value=0, max_value=6),
    victim_entries=st.integers(min_value=1, max_value=4),
    miss_entries=st.integers(min_value=1, max_value=6),
    stream_depth=st.integers(min_value=1, max_value=3),
)


def _apply(disk, op, arg):
    if op == "read":
        return disk.read_pages(arg)
    if op == "trim":
        return disk.trim_to_budget(arg, 0.005)
    if op == "cost":
        return disk.cost_if_cold(arg)
    if op == "estimate":
        return disk.estimate_read_time(arg)
    if op == "reset_head":
        return disk.reset_head()
    return disk.reset_stats()


class _PerPageModel:
    """The tiered read path one page at a time, over plain lists.

    The reference the store's batch loop is held to: LRU structures are
    lists (least recent first), every counter is bumped where the event
    happens, nothing is hoisted.
    """

    def __init__(self, spec: StorageSpec, n_pages: int | None) -> None:
        self.spec = spec
        self.n_pages = n_pages
        self.tier: list[int] = []
        self.victim: list[int] = []
        self.stream: list[int] = []
        self.miss: list[int] = []
        self.stats = dataclasses.asdict(TierStats())

    @staticmethod
    def _refresh(lru: list[int], page: int, capacity: int) -> int | None:
        """Make ``page`` the most recent entry; the entry pushed out, if any."""
        if page in lru:
            lru.remove(page)
        lru.append(page)
        return lru.pop(0) if len(lru) > capacity else None

    def _fill(self, page: int) -> None:
        spec = self.spec
        if spec.tier_pages <= 0:
            return
        evicted = self._refresh(self.tier, page, spec.tier_pages)
        if evicted is not None:
            self.stats["tier_evictions"] += 1
            if spec.miss_path in ("victim", "combined"):
                self.stats["writebacks"] += 1
                self._refresh(self.victim, evicted, spec.victim_entries)

    def read(self, batch) -> None:
        spec, stats = self.spec, self.stats
        if not spec.tiering_active:
            return
        misses = []
        for page in sorted(set(batch)):
            stats["requests"] += 1
            if page in self.tier:
                self._refresh(self.tier, page, spec.tier_pages)
                stats["tier_hits"] += 1
            elif spec.miss_path in ("victim", "combined") and page in self.victim:
                self.victim.remove(page)
                stats["victim_hits"] += 1
                self._fill(page)
            elif spec.miss_path in ("stream", "combined") and page in self.stream:
                self.stream.remove(page)
                stats["stream_hits"] += 1
                self._fill(page)
            elif spec.miss_path in ("miss", "combined") and page in self.miss:
                self._refresh(self.miss, page, spec.miss_entries)
                stats["miss_hits"] += 1
                self._fill(page)
            else:
                misses.append(page)
        if not misses:
            return
        stats["backing_pages"] += len(misses)
        stats["backing_calls"] += 1
        if spec.miss_path in ("miss", "combined"):
            for page in misses:
                self._refresh(self.miss, page, spec.miss_entries)
        if spec.miss_path in ("stream", "combined"):
            for page in misses:
                if page + 1 in misses:
                    continue  # not a run tail
                for ahead in range(page + 1, page + 1 + spec.stream_depth):
                    if self.n_pages is not None and ahead >= self.n_pages:
                        break
                    self._refresh(self.stream, ahead, len(self.stream) + 1)
            del self.stream[: max(0, len(self.stream) - spec.stream_depth * 4)]
        for page in misses:
            self._fill(page)


class TestDisabledStoreIsTheBareDisk:
    """Op-by-op differential identity of the pass-through configuration."""

    @settings(deadline=None, max_examples=60)
    @given(ops=operations)
    def test_every_operation_matches_bit_for_bit(self, ops):
        bare = DiskModel()
        tiered = TieredStore(DiskModel(), StorageSpec())
        assert not tiered.tiering_active
        for op, arg in ops:
            expected = _apply(bare, op, arg)
            actual = _apply(tiered, op, arg)
            # Exact equality, not approx: the disabled path delegates
            # verbatim, so even the float arithmetic is the same.
            assert actual == expected, f"{op}({arg}) diverged"
            assert tiered.stats == bare.stats
            assert tiered.params == bare.params

    @settings(deadline=None, max_examples=60)
    @given(ops=operations)
    def test_disabled_store_leaves_tier_counters_untouched(self, ops):
        tiered = TieredStore(DiskModel(), StorageSpec())
        for op, arg in ops:
            _apply(tiered, op, arg)
        ts = tiered.tier_stats
        assert ts.requests == 0
        assert ts.backing_pages == 0
        assert ts.tier_hits == ts.mechanism_hits == 0


class TestLayerPartitionInvariant:
    """Every requested page resolves at exactly one layer."""

    @settings(deadline=None, max_examples=80)
    @given(spec=active_specs, reads=st.lists(batches, max_size=25))
    def test_counters_partition_the_request_stream(self, spec, reads):
        store = TieredStore(DiskModel(), spec)
        n_requested = 0
        for batch in reads:
            store.read_pages(batch)
            n_requested += len(set(batch))
            ts = store.tier_stats
            assert ts.requests == (0 if not store.tiering_active else n_requested)
            assert ts.requests == (
                ts.tier_hits + ts.victim_hits + ts.stream_hits + ts.miss_hits
                + ts.backing_pages + ts.failed_fills
            )
            # The healthy inner disk never fails a fill.
            assert ts.failed_fills == 0

    @settings(deadline=None, max_examples=60)
    @given(spec=active_specs, reads=st.lists(batches, max_size=25))
    def test_structure_capacities_hold_after_every_read(self, spec, reads):
        store = TieredStore(DiskModel(), spec)
        for batch in reads:
            store.read_pages(batch)
            assert len(store._tier) <= spec.tier_pages
            assert len(store._victim) <= spec.victim_entries
            assert len(store._miss_tags) <= spec.miss_entries
            assert len(store._stream) <= spec.stream_depth * 4

    @settings(deadline=None, max_examples=60)
    @given(spec=active_specs, reads=st.lists(batches, max_size=15))
    def test_reset_stats_restores_the_pristine_store(self, spec, reads):
        store = TieredStore(DiskModel(), spec)
        for batch in reads:
            store.read_pages(batch)
        store.reset_stats()
        pristine = TieredStore(DiskModel(), spec)
        assert store.tier_stats == pristine.tier_stats
        assert store.stats == pristine.stats
        assert not store._tier and not store._victim
        assert not store._stream and not store._miss_tags

    @settings(deadline=None, max_examples=120)
    @given(
        spec=active_specs,
        reads=st.lists(batches, max_size=25),
        n_pages=st.sampled_from([None, 20]),
    )
    def test_read_loop_equals_the_per_page_reference_model(self, spec, reads, n_pages):
        """Key *order* of all four structures and every counter, after every batch."""
        store = TieredStore(DiskModel(), spec)
        model = _PerPageModel(spec, n_pages)
        if n_pages is not None:
            store.bind_page_table(SimpleNamespace(n_pages=n_pages))
        for batch in reads:
            store.read_pages(batch)
            model.read(batch)
            assert list(store._tier) == model.tier
            assert list(store._victim) == model.victim
            assert list(store._stream) == model.stream
            assert list(store._miss_tags) == model.miss
            assert dataclasses.asdict(store.tier_stats) == model.stats
            mark = store.tier_stats.snapshot()
            assert mark == store.tier_stats and mark is not store.tier_stats

    def test_mechanisms_absorb_backing_reads(self):
        # A deterministic re-read: the second pass over the same pages
        # must be absorbed by the tier, never the backing store.
        store = TieredStore(DiskModel(), StorageSpec(tier_pages=8))
        store.read_pages([1, 2, 3])
        before = store.tier_stats.backing_pages
        elapsed = store.read_pages([1, 2, 3])
        assert elapsed == 0.0
        assert store.tier_stats.backing_pages == before
        assert store.tier_stats.tier_hits == 3

    def test_victim_buffer_catches_tier_evictions(self):
        store = TieredStore(DiskModel(), StorageSpec(miss_path="victim", tier_pages=1))
        store.read_pages([1])
        store.read_pages([2])  # evicts 1 into the victim buffer
        assert store.tier_stats.writebacks == 1
        store.read_pages([1])  # swapped back from the victim buffer
        assert store.tier_stats.victim_hits == 1

    def test_stream_buffer_prefills_sequential_successors(self):
        store = TieredStore(DiskModel(), StorageSpec(miss_path="stream", stream_depth=2))
        store.read_pages([4])
        store.read_pages([5])  # run successor: stream-buffer hit, no I/O
        ts = store.tier_stats
        assert ts.stream_hits == 1
        assert ts.backing_pages == 1

    def test_fill_stall_charges_simulated_time(self):
        spec = StorageSpec(tier_pages=4, fill_stall_s=0.25)
        store = TieredStore(DiskModel(), spec)
        elapsed = store.read_pages([7])
        bare = DiskModel().read_pages([7])
        assert elapsed == pytest.approx(bare + 0.25)
        assert store.tier_stats.stall_seconds == pytest.approx(0.25)
        assert store.stats.seconds_busy == pytest.approx(bare + 0.25)


class TestStorageSpec:
    def test_roundtrips_through_dict(self):
        spec = StorageSpec(miss_path="combined", tier_pages=5, fill_stall_s=0.1)
        assert StorageSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown storage spec key"):
            StorageSpec.from_dict({"tier_pages": 2, "victim_size": 3})

    def test_rejects_unknown_miss_path(self):
        with pytest.raises(ValueError, match="unknown miss path"):
            StorageSpec(miss_path="assoc")

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            StorageSpec(backend="nvme")

    def test_make_storage_builds_both_backends(self):
        for backend in ("ram", "mmap"):
            store = make_storage(DiskModel(), StorageSpec(backend=backend))
            assert isinstance(store, TieredStore)

    def test_disabled_spec_is_not_active(self):
        assert not StorageSpec().tiering_active
        assert StorageSpec(tier_pages=1).tiering_active
        assert StorageSpec(miss_path="miss").tiering_active


# -- serving-level identity ---------------------------------------------------


def _serving_fixture(n_clients=3, n_queries=5):
    from repro.baselines import EWMAPrefetcher
    from repro.datagen import make_neuron_tissue
    from repro.index import FlatIndex
    from repro.workload.multiclient import multiclient_sessions

    dataset = make_neuron_tissue(n_neurons=8, seed=7)
    index = FlatIndex(dataset, fanout=16)
    clients = multiclient_sessions(
        dataset,
        n_clients=n_clients,
        seed=21,
        n_queries=n_queries,
        volume=30_000.0,
        mode="hotspot",
    )
    fleet = lambda: [EWMAPrefetcher(lam=0.3) for _ in clients]  # noqa: E731
    return index, clients, fleet


def _serve(index, clients, fleet, storage, **kwargs):
    from dataclasses import asdict

    from repro.sim import ServingSimulator, SimulationConfig

    config = SimulationConfig(storage=storage)
    return asdict(ServingSimulator(index, config).run(clients, fleet(), **kwargs))


@pytest.mark.parametrize("backend", ["ram", "mmap"])
def test_disabled_store_serving_report_matches_bare_disk(backend, tmp_path):
    index, clients, fleet = _serving_fixture()
    plain = _serve(index, clients, fleet, None)
    spec = StorageSpec(
        backend=backend,
        path=str(tmp_path / "pages.pf") if backend == "mmap" else None,
    )
    tiered = _serve(index, clients, fleet, spec)
    plain.pop("tiers_active")
    tiered.pop("tiers_active")
    # The mmap backend serves real bytes but charges no simulated time
    # on a healthy file, so even it is metric-identical.
    assert tiered == plain


@pytest.mark.parametrize("miss_path", MISS_PATHS)
def test_round_robin_and_lockstep_agree_over_a_tiered_store(miss_path):
    index, clients, fleet = _serving_fixture()
    spec = StorageSpec(miss_path=miss_path, tier_pages=6)
    rr = _serve(index, clients, fleet, spec, lockstep=False)
    ls = _serve(index, clients, fleet, spec, lockstep=True)
    assert rr == ls
    assert rr["tiers_active"]


def test_tier_counters_attribute_across_clients():
    from repro.sim import ServingSimulator, SimulationConfig

    index, clients, fleet = _serving_fixture()
    config = SimulationConfig(storage=StorageSpec(miss_path="combined", tier_pages=8))
    report = ServingSimulator(index, config).run(clients, fleet())
    assert report.tiers_active
    assert report.tier_hits == sum(c.tier_hits for c in report.clients) > 0
    assert report.tier_fills == sum(c.tier_fills for c in report.clients) > 0
    pooled = report.to_aggregate()
    assert pooled.tier_hits == report.tier_hits
    assert pooled.miss_path_hits == report.miss_path_hits

    # With no mechanism below the tier, the tier alone absorbs reads.
    config = SimulationConfig(storage=StorageSpec(miss_path="none", tier_pages=8))
    bare_tier = ServingSimulator(index, config).run(clients, fleet()).to_aggregate()
    assert bare_tier.tier_hits is not None and bare_tier.tier_fills > 0
    assert bare_tier.miss_path_hits == 0
