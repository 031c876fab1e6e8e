"""The serving scheduler: bit-identity against the round-robin oracle.

The scheduler (each walk's results fetched once, ticks filled ahead,
walk plan tapes) is only allowed to change *where* pure work happens,
never what any client observes.  The matrix here pins that against
``tests.oracles.serving.RoundRobinSimulator``, which steps one client's
full query at a time through none of that machinery
(``TestReferenceIndependence`` spies on it): for every client count x
contention mode x prefetcher x cache size, the two reports are equal
**bit for bit** -- every per-query record, every per-client contention
counter, every shared-cache total, the tick count.

Also pinned: one client reproduces ``SimulationEngine.run`` exactly,
that plan sharing engages only for an eligible fleet, that a follower's
data-level hit count is its own (not its leader's), and the
``to_aggregate`` round trip that carries the contention counters into
stored records (additive keys only).
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import EWMAPrefetcher, StraightLinePrefetcher
from repro.baselines.base import PrefetchTarget
from repro.core import ScoutOptPrefetcher, ScoutPrefetcher
from repro.geometry.aabb import AABB
from repro.index import FlatIndex
from repro.index.base import SpatialIndex
from repro.index.rtree import STRTree
from repro.sim import ServingSimulator, SimulationConfig, SimulationEngine
from repro.sim import serve as serve_module
from repro.sim.engine import (
    PROBE_CHUNK,
    QuerySession,
    _SharedProbeStream,
    resolve_ahead,
    walk_results,
)
from repro.sim.results import metrics_from_dict, metrics_to_dict
from repro.storage.cache import PrefetchCache
from repro.storage.faults import FaultPlan
from repro.storage.sharded import ShardedCache, ShardSpec
from repro.storage.tiered import StorageSpec
from repro.workload import multiclient_sessions
from tests.oracles.serving import RoundRobinSimulator


def make_prefetcher(kind: str, tissue):
    if kind == "scout":
        return ScoutPrefetcher(tissue)
    if kind == "line":
        return StraightLinePrefetcher()
    return EWMAPrefetcher(lam=0.3)


def serve(tissue, index, *, n_clients, kind="ewma", mode="independent",
          stagger=0, cache_pages=None, n_queries=4, seed=5, hot_pool=4,
          simulator=ServingSimulator):
    clients = multiclient_sessions(
        tissue,
        n_clients=n_clients,
        seed=seed,
        n_queries=n_queries,
        volume=30_000.0,
        mode=mode,
        stagger=stagger,
        hot_pool=hot_pool,
    )
    config = SimulationConfig(cache_capacity_pages=cache_pages)
    prefetchers = [make_prefetcher(kind, tissue) for _ in clients]
    return simulator(index, config).run(clients, prefetchers)


def report_state(report) -> tuple:
    """Every observable bit of a ServeReport, comparably flattened."""
    return (
        [
            (
                client.client_id,
                client.shared_hits,
                client.shared_misses,
                client.cross_client_hits,
                client.evicted_misses,
                [dataclasses.asdict(r) for r in client.metrics.records],
            )
            for client in report.clients
        ],
        report.capacity_pages,
        report.cache_hits,
        report.cache_misses,
        report.cache_evictions,
        report.cache_insertions,
        report.n_ticks,
    )


class TestLockstepEquivalence:
    @pytest.mark.parametrize("n_clients", [1, 2, 8, 64])
    @pytest.mark.parametrize("mode", ["independent", "hotspot"])
    @pytest.mark.parametrize("kind", ["ewma", "scout"])
    def test_lockstep_bit_identical_to_round_robin(
        self, tissue, tissue_flat, n_clients, mode, kind
    ):
        n_queries = 2 if n_clients == 64 else 4
        reference = serve(
            tissue, tissue_flat, n_clients=n_clients, mode=mode, kind=kind,
            n_queries=n_queries, simulator=RoundRobinSimulator,
        )
        vectorized = serve(
            tissue, tissue_flat, n_clients=n_clients, mode=mode, kind=kind,
            n_queries=n_queries,
        )
        assert report_state(vectorized) == report_state(reference)

    @pytest.mark.parametrize("stagger,cache_pages", [(0, None), (1, 24), (2, 12)])
    def test_backends_and_contention_knobs(
        self, tissue, tissue_flat, stagger, cache_pages
    ):
        """Staggered arrivals and tiny (evicting) caches."""
        reference = serve(
            tissue, tissue_flat, n_clients=4, mode="hotspot", stagger=stagger,
            cache_pages=cache_pages, n_queries=5, simulator=RoundRobinSimulator,
        )
        vectorized = serve(
            tissue, tissue_flat, n_clients=4, mode="hotspot", stagger=stagger,
            cache_pages=cache_pages, n_queries=5,
        )
        assert report_state(vectorized) == report_state(reference)

    @pytest.mark.parametrize("kind", ["ewma", "line", "scout"])
    def test_single_client_lockstep_matches_engine_run(
        self, tissue, tissue_flat, kind
    ):
        """N=1 under the new scheduler still reproduces the classic loop."""
        clients = multiclient_sessions(
            tissue, n_clients=1, seed=5, n_queries=8, volume=30_000.0
        )
        report = ServingSimulator(tissue_flat).run(clients, [make_prefetcher(kind, tissue)])
        reference = SimulationEngine(tissue_flat).run(
            clients[0].sequence, make_prefetcher(kind, tissue)
        )
        assert report.clients[0].metrics.records == reference.records
        assert report.to_aggregate().cache_hit_rate == reference.cache_hit_rate

    def test_followers_count_their_own_object_hits(self, monkeypatch, tissue, tissue_flat):
        """A follower reads its leader's per-page object counts but sums
        them over *its own* hit mask: on a cache this small the leader's
        prefetch evicts pages it just hit, so followers miss them."""
        touches = []
        touch_many = PrefetchCache.touch_many

        def spy(cache, pages):
            hit = touch_many(cache, pages)
            touches.append((np.array(pages), np.array(hit, dtype=bool)))
            return hit

        monkeypatch.setattr(PrefetchCache, "touch_many", spy)
        n_clients, n_queries = 9, 6
        clients = multiclient_sessions(
            tissue, n_clients=n_clients, seed=5, n_queries=n_queries, volume=30_000.0,
            mode="hotspot", hot_pool=1,
        )
        assert len({id(client.sequence) for client in clients}) == 1  # 1 leader, 8 followers
        report = ServingSimulator(tissue_flat, SimulationConfig(cache_capacity_pages=4)).run(
            clients, [EWMAPrefetcher(lam=0.3) for _ in clients]
        )
        assert len(touches) == n_clients * n_queries  # one demand touch per step, tick-major

        page_table = tissue_flat.page_table
        lost_to_followers = 0
        for tick, query in enumerate(clients[0].sequence.queries):
            result = tissue_flat.query(query.bounds)
            object_pages = page_table.page_ids_of_objects(result.object_ids)
            _, leader_hit = touches[tick * n_clients]
            for position, client in enumerate(report.clients):
                pages, hit = touches[tick * n_clients + position]
                assert np.array_equal(pages, result.page_ids)
                # The dense hit table the engine used to build per step.
                hit_table = np.zeros(page_table.n_pages, dtype=bool)
                hit_table[pages[hit]] = True
                record = client.metrics.records[tick]
                assert record.objects_hit == int(np.count_nonzero(hit_table[object_pages]))
                assert record.pages_hit == int(np.count_nonzero(hit))
                lost_to_followers += int(np.count_nonzero(leader_hit & ~hit))
        assert lost_to_followers > 0

    def test_share_plans_off_is_still_identical(self, tissue, tissue_flat):
        """Sharing is an optimization, not a semantic: the reference never shares."""
        shared = serve(tissue, tissue_flat, n_clients=6, mode="hotspot",
                       hot_pool=2)
        reference = serve(tissue, tissue_flat, n_clients=6, mode="hotspot",
                          hot_pool=2, simulator=RoundRobinSimulator)
        assert report_state(shared) == report_state(reference)


class TestReferenceIndependence:
    """The oracle shares no machinery with the tick it checks."""

    def test_round_robin_reaches_none_of_the_tick(self, monkeypatch, tissue, tissue_flat):
        """No tick, fill-ahead, tape or shared probe pass runs under the
        oracle, and every step it makes fills its own pure work -- over a
        shareable fleet with faults and staggered arrivals."""
        reached = Counter()

        def refuse(name):
            def call(*args, **kwargs):
                reached[name] += 1
                raise AssertionError(f"{name} was reached")

            return call

        for name in ("step_tick", "resolve_ahead", "plan_tapes"):
            monkeypatch.setattr(serve_module, name, refuse(name))
        for name in ("fill_ahead", "tape_entry", "plan_tape"):
            monkeypatch.setattr(QuerySession, name, refuse(name))
        step_query = QuerySession.step_query
        bundles = []

        def step_spy(session, work=None):
            bundles.append(work)
            return step_query(session, work)

        monkeypatch.setattr(QuerySession, "step_query", step_spy)
        clients = multiclient_sessions(
            tissue, n_clients=4, seed=5, n_queries=5, volume=30_000.0,
            mode="hotspot", hot_pool=2, stagger=1,
        )
        config = chaos_config(transient_rate=0.2, breaker_threshold=1)
        RoundRobinSimulator(tissue_flat, config).run(
            clients, [EWMAPrefetcher(lam=0.3) for _ in clients]
        )
        assert not reached
        assert bundles == [None] * (4 * 5)
        # The spies are live: the scheduler under test tapes this fleet first.
        with pytest.raises(AssertionError, match="plan_tapes was reached"):
            ServingSimulator(tissue_flat, config).run(
                clients, [EWMAPrefetcher(lam=0.3) for _ in clients]
            )

    @pytest.mark.parametrize("value", [False, None, 1])
    def test_run_has_no_second_scheduler(self, tissue, tissue_flat, value):
        """A stale ``lockstep=False`` cannot compare the tick with itself."""
        clients = multiclient_sessions(tissue, n_clients=2, seed=5, n_queries=2, volume=30_000.0)
        with pytest.raises(TypeError, match="RoundRobinSimulator"):
            ServingSimulator(tissue_flat).run(
                clients, [EWMAPrefetcher(lam=0.3) for _ in clients], lockstep=value
            )


def chaos_config(seed: int = 11, **faults) -> SimulationConfig:
    """Shards + tiers + faults composed, as on the e2e ``fleet_thrash``."""
    return SimulationConfig(
        cache_capacity_pages=24,
        shards=ShardSpec(n_shards=4, shard_cache_pages=8, rebalance=True, rebalance_interval=4),
        storage=StorageSpec(miss_path="combined", tier_pages=6),
        faults=FaultPlan(seed=seed, **faults),
    )


class TestFillAhead:
    """The tick fills pure work ahead of the steps; the steps must not notice."""

    @pytest.mark.parametrize("kind", ["ewma", "scout", "scout-opt"])
    def test_identical_while_breakers_open_within_a_tick(
        self, monkeypatch, tissue, tissue_flat, kind
    ):
        """``retry_limit=0`` makes every transient error a failed read, so
        breakers trip: in one tick some sessions are filled through the
        plan and some (open / half-open) only through the result.  EWMA
        sessions replay their walks' tapes until their breakers open."""
        n_clients, n_queries = 6, 10
        clients = multiclient_sessions(
            tissue, n_clients=n_clients, seed=5, n_queries=n_queries, volume=30_000.0,
            gap=25.0 if kind == "scout-opt" else 0.0,
        )
        config = chaos_config(
            transient_rate=0.35, retry_limit=0, breaker_threshold=1, breaker_cooldown=2
        )

        def fleet():
            if kind == "scout-opt":
                return [ScoutOptPrefetcher(tissue, tissue_flat) for _ in clients]
            return [make_prefetcher(kind, tissue) for _ in clients]

        reference = RoundRobinSimulator(tissue_flat, config).run(clients, fleet())

        filled = []  # per record, as it left fill_ahead: (tick, predicted, gapped, planned)
        replayed = []  # per record replayed off a tape: its tick
        fill_ahead, replay = QuerySession.fill_ahead, QuerySession.step_query_replay

        def spy(session):
            work = fill_ahead(session)
            assert work.pages is not None and work.cold is not None
            filled.append(
                (
                    work.cursor,
                    work.prediction_cost is not None,
                    bool(work.gap_pages),
                    work.streams is not None,
                )
            )
            return work

        def replay_spy(session, work):
            replayed.append(work.cursor)
            return replay(session, work)

        monkeypatch.setattr(QuerySession, "fill_ahead", spy)
        monkeypatch.setattr(QuerySession, "step_query_replay", replay_spy)
        vectorized = ServingSimulator(tissue_flat, config).run(clients, fleet())
        assert dataclasses.asdict(vectorized) == dataclasses.asdict(reference)
        assert vectorized.breaker_opens > 0 and vectorized.degraded_ticks > 0

        # Nobody is staggered, so a record's tick is its query index.  An
        # EWMA session replays until its breaker first opens and is filled
        # ahead from then on; SCOUT is never taped.
        assert len(filled) + len(replayed) == n_clients * n_queries
        assert bool(replayed) == (kind == "ewma")
        ticks = [
            {predicted for t, predicted, _, _ in filled if t == tick} for tick in range(n_queries)
        ]
        assert {True, False} in ticks
        filled = [entry[1:] for entry in filled]
        assert any(planned for _, _, planned in filled)
        assert all(predicted for predicted, _, planned in filled if planned)
        # A non-empty gap list spends budget on cache-dependent reads
        # first, so such a query is never planned ahead.
        assert not any(planned for _, gapped, planned in filled if gapped)
        assert any(gapped for _, gapped, _ in filled) == (kind == "scout-opt")

    def test_batched_resolve_equals_per_stream_get(self, tissue_flat):
        engine = SimulationEngine(tissue_flat)
        center = tissue_flat.dataset.bounds.center
        boxes = tuple(AABB.from_center_extent(center, side) for side in (20.0, 35.0, 50.0))
        explicit = PrefetchTarget(anchor=center, direction=np.zeros(3), regions=boxes)
        incremental = PrefetchTarget(anchor=center, direction=np.array([1.0, 0.5, 0.0]))
        query = AABB.from_center_extent(center, 40.0)

        def streams():
            return engine._probe_streams(
                [explicit, incremental, explicit], SimpleNamespace(bounds=query)
            )

        alone, batched = streams(), streams()
        assert isinstance(batched[0]._regions, tuple) and batched[1]._regions.ndim == 3
        n_steps = engine.config.incremental_max_steps
        assert n_steps > 2 * PROBE_CHUNK  # a third chunk stays for get()

        resolve_ahead(tissue_flat, [])  # an empty plan: nothing to resolve, no probe
        resolve_ahead(tissue_flat, batched)
        assert [len(stream._resolved) for stream in batched] == [3, 8, 3]
        resolve_ahead(tissue_flat, batched)  # second chunk; the explicit ones are done
        assert [len(stream._resolved) for stream in batched] == [3, 16, 3]
        compact = streams()
        for stream in compact:
            stream.compact()
        resolve_ahead(tissue_flat, compact)
        for lone, ahead, kept in zip(alone, batched, compact):
            # Readers stop at the end: the plan loop retires a target there.
            for position in range(len(lone._regions)):
                want, got = lone.get(position), ahead.get(position)
                assert type(want) is type(got) is list and want == got
                assert ahead._listed[position] is got  # listed once, read directly
                # A compact stream keeps the page array and lists it per read.
                listed = kept.get(position)
                assert type(listed) is list and listed == want and not kept._listed
                assert isinstance(kept._resolved[position], np.ndarray)
        assert len(batched[1]._resolved) == len(compact[1]._resolved) == n_steps

    def test_filled_bundle_at_the_wrong_cursor_raises(self, tissue, tissue_flat):
        clients = multiclient_sessions(tissue, n_clients=1, seed=5, n_queries=3, volume=30_000.0)
        sequence = clients[0].sequence
        engine = SimulationEngine(tissue_flat)
        session = QuerySession(engine, sequence, EWMAPrefetcher(lam=0.3))
        work = session.fill_ahead()
        assert work.prediction_cost is not None
        session.step_query(work)
        with pytest.raises(ValueError, match="bundle for query 0 replayed at cursor 1"):
            session.step_query(work)
        assert session.query_index == 1 and len(session.metrics.records) == 1


class CountingIndex(FlatIndex):
    """A FLAT index that counts its query and probe-pass calls."""

    def __init__(self, dataset) -> None:
        self.calls: Counter = Counter()
        super().__init__(dataset, fanout=16)

    def query(self, region):
        self.calls["query"] += 1
        return super().query(region)

    def query_many(self, regions):
        self.calls["query_many"] += 1
        return super().query_many(regions)

    def pages_for_regions(self, regions):
        self.calls["pages_for_regions"] += 1
        return super().pages_for_regions(regions)


class TestOnePassPerStage:
    """The single-client step fills each stage in one pass, and a step
    handed its pure work (by the tick or a tape) fetches nothing again."""

    @pytest.fixture()
    def walk(self, tissue):
        clients = multiclient_sessions(tissue, n_clients=1, seed=5, n_queries=8, volume=30_000.0)
        return CountingIndex(tissue), clients[0].sequence

    def test_a_stepped_walk_is_served_by_one_query_many(self, tissue, walk):
        index, sequence = walk
        session = QuerySession(SimulationEngine(index), sequence, ScoutPrefetcher(tissue))
        session.run()
        assert (index.calls["query"], index.calls["query_many"]) == (0, 1)

    def test_a_step_filled_ahead_or_taped_fetches_no_result(self, tissue, walk):
        """Sessions handed their walk's results fetch nothing, whether a
        step is filled ahead, taped, replayed or renewed."""
        index, sequence = walk
        engine = SimulationEngine(index)
        results = walk_results(index, sequence)
        index.calls.clear()
        ahead, taped, replaying = (
            QuerySession(engine, sequence, EWMAPrefetcher(lam=0.3), results=results)
            for _ in range(3)
        )
        tape = taped.plan_tape()
        for work in tape:
            ahead.step_query(ahead.fill_ahead())
            taped.step_query_replay(work)
            replaying.step_query_replay(work)
        renewed = ahead.renew(EWMAPrefetcher(lam=0.3))
        renewed.run()
        assert index.calls["query"] == index.calls["query_many"] == 0
        assert ahead.done and taped.done and replaying.done
        assert renewed.results is results

    def test_a_plan_filled_by_its_step_is_probed_in_one_pass(self, tissue, walk):
        index, sequence = walk
        session = QuerySession(SimulationEngine(index), sequence, ScoutPrefetcher(tissue))
        planned = 0
        while not session.done:
            # The first step's walk-wide query_many is one probe pass more.
            before = index.calls["pages_for_regions"] - index.calls["query_many"]
            work = session.step_query_capture()
            if not work.streams:
                continue
            planned += 1
            # Every stream's first chunk is resolved, consumed or not,
            # and the first pass answered all of them.
            for stream in work.streams:
                assert len(stream._resolved) >= min(PROBE_CHUNK, len(stream._regions))
            passes = index.calls["pages_for_regions"] - index.calls["query_many"] - before
            deeper = sum(-(-len(s._resolved) // PROBE_CHUNK) - 1 for s in work.streams)
            assert passes == 1 + deeper
        assert planned > 0

    def test_the_lockstep_tick_keeps_its_probe_passes(self, monkeypatch):
        """The tick resolves every stream itself: a step it filled must
        not probe again.  One seed-7 ``fleet_thrash`` repetition probes in
        one ``query_many`` per walk (64 walks; 79 tick-wide calls before
        each walk was fetched once) and one pass for the first chunks of
        all 64 tapes; no session reads past them, so no tick probes (78
        tick passes while faults kept every walk untaped)."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
        from e2e_workloads import FleetWorkload

        workload = FleetWorkload("fleet_thrash")
        workload.build(7)
        passes = Counter()
        origin = []
        probe, query_many = STRTree.pages_for_regions, SpatialIndex.query_many
        plan_tapes = serve_module.plan_tapes

        def counted(index, regions):
            passes[origin[-1] if origin else "tick"] += 1
            return probe(index, regions)

        def within(name, function):
            def call(*args):
                origin.append(name)
                try:
                    return function(*args)
                finally:
                    origin.pop()

            return call

        monkeypatch.setattr(STRTree, "pages_for_regions", counted)
        monkeypatch.setattr(SpatialIndex, "query_many", within("walk", query_many))
        monkeypatch.setattr(serve_module, "plan_tapes", within("tape", plan_tapes))
        workload.repetition()
        assert dict(passes) == {"walk": 64, "tape": 1}

    def test_a_served_query_is_attributed_in_one_pass(self, tissue, tissue_flat, monkeypatch):
        """Each step with a client id makes one ``touch_many`` and one
        ``attribute_many`` on its cache, and no separate owner or eviction
        lookup -- taped, ticked or round-robin, plain or sharded."""
        calls = Counter()
        for cls in (PrefetchCache, ShardedCache):
            for name in ("touch_many", "attribute_many", "owners_many", "evicted_many"):
                original = getattr(cls, name)

                def counted(cache, *args, _original=original, _key=(cls.__name__, name)):
                    calls[_key] += 1
                    return _original(cache, *args)

                monkeypatch.setattr(cls, name, counted)
        sharded = SimulationConfig(
            cache_capacity_pages=64, shards=ShardSpec(n_shards=4, partition="hash")
        )
        for mode, config, top in [
            ("hotspot", SimulationConfig(), "PrefetchCache"),  # taped
            ("independent", SimulationConfig(cache_capacity_pages=48), "PrefetchCache"),
            ("hotspot", sharded, "ShardedCache"),
        ]:
            clients = multiclient_sessions(
                tissue, n_clients=4, seed=5, n_queries=5, volume=30_000.0,
                mode=mode, hot_pool=2, stagger=1,
            )
            for simulator, fleet in [
                (ServingSimulator, EWMAPrefetcher),
                (RoundRobinSimulator, EWMAPrefetcher),
                (ServingSimulator, lambda: ScoutPrefetcher(tissue)),
            ]:
                calls.clear()
                report = simulator(tissue_flat, config).run(clients, [fleet() for _ in clients])
                steps = sum(len(client.metrics.records) for client in report.clients)
                assert steps == 4 * 5
                assert calls[top, "touch_many"] == calls[top, "attribute_many"] == steps
                for cls in ("PrefetchCache", "ShardedCache"):
                    assert calls[cls, "owners_many"] == calls[cls, "evicted_many"] == 0

    def test_scout_walk_probe_passes_split_by_origin(self, monkeypatch):
        """One seed-7 ``scout_walk`` repetition probes 1,490 times: 48 walk
        ``query_many`` passes, 1,098 whole-plan first-chunk passes, and 344
        one-stream passes for a stream's deeper chunks (``get``)."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"))
        from e2e_workloads import ScoutWalk

        workload = ScoutWalk()
        workload.build(7)
        passes = Counter()
        origin = []
        probe, query_many, get = (
            STRTree.pages_for_regions, SpatialIndex.query_many, _SharedProbeStream.get,
        )

        def counted_probe(index, regions):
            passes[origin[-1] if origin else "plan"] += 1
            return probe(index, regions)

        def from_origin(name, original):
            def wrapped(*args):
                origin.append(name)
                try:
                    return original(*args)
                finally:
                    origin.pop()

            return wrapped

        monkeypatch.setattr(STRTree, "pages_for_regions", counted_probe)
        monkeypatch.setattr(SpatialIndex, "query_many", from_origin("walk", query_many))
        monkeypatch.setattr(_SharedProbeStream, "get", from_origin("deeper", get))
        workload.repetition()
        assert dict(passes) == {"walk": 48, "plan": 1098, "deeper": 344}


class TestPlanSharing:
    @pytest.mark.parametrize("stagger", [0, 1])
    def test_followers_actually_replay_the_leader(self, tissue, tissue_flat, stagger):
        """Plan sharing must engage (else the equivalence tests are vacuous).

        The walk kernel plans the shared hot walk's tape without
        observing, and every session replays the tape and skips
        ``observe()`` entirely, so every prefetcher history stays empty
        -- observable proof the tape, not a recomputation, served them,
        whatever their start ticks.
        """
        clients = multiclient_sessions(
            tissue, n_clients=4, seed=5, n_queries=4, volume=30_000.0,
            mode="hotspot", hot_pool=1, stagger=stagger,
        )
        prefetchers = [EWMAPrefetcher(lam=0.3) for _ in clients]
        vectorized = ServingSimulator(tissue_flat).run(clients, prefetchers)
        histories = [len(p._centers) for p in prefetchers]
        assert histories == [0, 0, 0, 0]  # every session replayed, none observed
        reference = RoundRobinSimulator(tissue_flat).run(
            clients, [EWMAPrefetcher(lam=0.3) for _ in clients]
        )
        assert report_state(vectorized) == report_state(reference)

    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 2**31 - 1),
        mode=st.sampled_from(["independent", "hotspot"]),
        stagger=st.sampled_from([0, 1]),
        kind=st.sampled_from(["ewma", "line"]),
    )
    def test_sessions_leave_the_tape_when_their_breakers_open(
        self, tissue, tissue_flat, seed, mode, stagger, kind
    ):
        """Faults tape every walk: a session replays until its breaker
        first opens, then observes what it replayed and steps untaped.
        ``retry_limit=0`` and ``breaker_threshold=1`` make breakers open
        mid-walk; hotspot sessions share tapes, independent ones do not."""
        clients = multiclient_sessions(
            tissue, n_clients=6, seed=5, n_queries=8, volume=30_000.0,
            mode=mode, hot_pool=2, stagger=stagger,
        )
        config = chaos_config(
            seed, transient_rate=0.5, retry_limit=0, breaker_threshold=1, breaker_cooldown=2
        )
        reference = RoundRobinSimulator(tissue_flat, config).run(
            clients, [make_prefetcher(kind, tissue) for _ in clients]
        )
        replayed = []
        replay = QuerySession.step_query_replay

        def replay_spy(session, work):
            replayed.append(work.cursor)
            return replay(session, work)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(QuerySession, "step_query_replay", replay_spy)
            vectorized = ServingSimulator(tissue_flat, config).run(
                clients, [make_prefetcher(kind, tissue) for _ in clients]
            )
        assert dataclasses.asdict(vectorized) == dataclasses.asdict(reference)
        assert vectorized.breaker_opens > 0
        # Every session replays its first query; some leave before their last.
        assert len(clients) <= len(replayed) < len(clients) * 8

    def test_heterogeneous_fleet_disables_sharing(self, tissue, tissue_flat):
        """Mixed prefetcher configs must not share plans -- and stay exact."""
        clients = multiclient_sessions(
            tissue, n_clients=3, seed=5, n_queries=4, volume=30_000.0,
            mode="hotspot", hot_pool=1,
        )

        def fleet():
            return [EWMAPrefetcher(lam=0.3), EWMAPrefetcher(lam=0.7),
                    StraightLinePrefetcher()]

        reference = RoundRobinSimulator(tissue_flat).run(clients, fleet())
        vectorized = ServingSimulator(tissue_flat).run(clients, fleet())
        assert report_state(vectorized) == report_state(reference)


class TestAggregateCarryThrough:
    """Satellite fix: ``to_aggregate`` must not drop contention counters."""

    def test_to_aggregate_carries_contention_counters(self, tissue, tissue_flat):
        report = serve(
            tissue, tissue_flat, n_clients=4, kind="scout", mode="hotspot",
            hot_pool=1, stagger=1, n_queries=8,
        )
        assert report.cross_client_hits > 0  # the interesting case
        pooled = report.to_aggregate()
        assert pooled.cross_client_hits == report.cross_client_hits
        assert pooled.evicted_misses == report.evicted_misses

    def test_serving_metrics_round_trip_through_store_schema(
        self, tissue, tissue_flat
    ):
        report = serve(tissue, tissue_flat, n_clients=2, n_queries=3)
        pooled = report.to_aggregate()
        data = metrics_to_dict(pooled)
        assert data["cross_client_hits"] == report.cross_client_hits
        assert data["evicted_misses"] == report.evicted_misses
        assert metrics_from_dict(data) == pooled

    def test_single_client_records_stay_byte_identical(self, tissue, tissue_flat):
        """Non-serving aggregates persist without the additive keys."""
        from repro.sim import run_experiment
        from repro.workload import generate_sequences

        sequences = generate_sequences(tissue, 2, 5, n_queries=3, volume=30_000.0)
        outcome = run_experiment(tissue_flat, sequences, EWMAPrefetcher(lam=0.3))
        data = metrics_to_dict(outcome.metrics)
        assert "cross_client_hits" not in data
        assert "evicted_misses" not in data
        assert metrics_from_dict(data) == dataclasses.replace(
            outcome.metrics, speedup=outcome.metrics.speedup
        )
