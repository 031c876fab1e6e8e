"""Lockstep serving plane: bit-identity against the round-robin reference.

The vectorized scheduler (batched ``query_many`` per tick,
leader/follower plan sharing; the same shared cache as the reference)
is only allowed to change *where* pure work happens, never what any
client observes.  The matrix here pins that: for every client count x
contention mode x prefetcher x cache size, the lockstep report equals
the round-robin report **bit for bit** -- every per-query record, every per-client contention counter,
every shared-cache total, the tick count.  Timing claims (the perf
suite's 5x) are only meaningful on top of this equality.

Also pinned: N=1 lockstep reproduces ``SimulationEngine.run`` exactly
(extending the PR-5 invariant to the new scheduler), that plan sharing
engages only for an eligible fleet, that a follower's data-level hit
count is its own (not its leader's), and the ``to_aggregate`` round trip
that carries the contention counters into stored records (additive keys
only).
"""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines import EWMAPrefetcher, StraightLinePrefetcher
from repro.baselines.base import PrefetchTarget
from repro.core import ScoutOptPrefetcher, ScoutPrefetcher
from repro.geometry.aabb import AABB
from repro.sim import ServingSimulator, SimulationConfig, SimulationEngine
from repro.sim.engine import QuerySession, resolve_ahead
from repro.sim.results import metrics_from_dict, metrics_to_dict
from repro.storage.cache import PrefetchCache
from repro.storage.faults import FaultPlan
from repro.storage.sharded import ShardSpec
from repro.storage.tiered import StorageSpec
from repro.workload import multiclient_sessions


def make_prefetcher(kind: str, tissue):
    if kind == "scout":
        return ScoutPrefetcher(tissue)
    if kind == "line":
        return StraightLinePrefetcher()
    return EWMAPrefetcher(lam=0.3)


def serve(tissue, index, *, n_clients, kind="ewma", mode="independent",
          stagger=0, cache_pages=None, n_queries=4, seed=5, hot_pool=4,
          **run_kwargs):
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
    return ServingSimulator(index, config).run(clients, prefetchers, **run_kwargs)


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
            n_queries=n_queries, lockstep=False,
        )
        vectorized = serve(
            tissue, tissue_flat, n_clients=n_clients, mode=mode, kind=kind,
            n_queries=n_queries, lockstep=True,
        )
        assert report_state(vectorized) == report_state(reference)

    @pytest.mark.parametrize("stagger,cache_pages", [(0, None), (1, 24), (2, 12)])
    def test_backends_and_contention_knobs(
        self, tissue, tissue_flat, stagger, cache_pages
    ):
        """Staggered arrivals and tiny (evicting) caches."""
        reference = serve(
            tissue, tissue_flat, n_clients=4, mode="hotspot", stagger=stagger,
            cache_pages=cache_pages, n_queries=5, lockstep=False,
        )
        vectorized = serve(
            tissue, tissue_flat, n_clients=4, mode="hotspot", stagger=stagger,
            cache_pages=cache_pages, n_queries=5, lockstep=True,
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
        report = ServingSimulator(tissue_flat).run(
            clients, [make_prefetcher(kind, tissue)], lockstep=True
        )
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
            touches.append((np.array(pages), hit))
            return hit

        monkeypatch.setattr(PrefetchCache, "touch_many", spy)
        n_clients, n_queries = 9, 6
        clients = multiclient_sessions(
            tissue, n_clients=n_clients, seed=5, n_queries=n_queries, volume=30_000.0,
            mode="hotspot", hot_pool=1,
        )
        assert len({id(client.sequence) for client in clients}) == 1  # 1 leader, 8 followers
        report = ServingSimulator(tissue_flat, SimulationConfig(cache_capacity_pages=4)).run(
            clients, [EWMAPrefetcher(lam=0.3) for _ in clients], lockstep=True
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
                       hot_pool=2, lockstep=True)
        reference = serve(tissue, tissue_flat, n_clients=6, mode="hotspot",
                          hot_pool=2, lockstep=False)
        assert report_state(shared) == report_state(reference)


def chaos_config(**faults) -> SimulationConfig:
    """Shards + tiers + faults composed, as on the e2e ``fleet_thrash``."""
    return SimulationConfig(
        cache_capacity_pages=24,
        shards=ShardSpec(n_shards=4, shard_cache_pages=8, rebalance=True, rebalance_interval=4),
        storage=StorageSpec(miss_path="combined", tier_pages=6),
        faults=FaultPlan(seed=11, **faults),
    )


class TestFillAhead:
    """The tick fills pure work ahead of the steps; the steps must not notice."""

    @pytest.mark.parametrize("kind", ["ewma", "scout", "scout-opt"])
    def test_identical_while_breakers_open_within_a_tick(
        self, monkeypatch, tissue, tissue_flat, kind
    ):
        """``retry_limit=0`` makes every transient error a failed read, so
        breakers trip: in one tick some sessions are filled through the
        plan and some (open / half-open) only through the result."""
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

        reference = ServingSimulator(tissue_flat, config).run(clients, fleet(), lockstep=False)

        filled = []  # per record, as it left fill_ahead: (predicted, gapped, planned)
        fill_ahead = QuerySession.fill_ahead

        def spy(session, result):
            work = fill_ahead(session, result)
            assert work.result is result and work.cold is not None
            filled.append(
                (work.prediction_cost is not None, bool(work.gap_pages), work.streams is not None)
            )
            return work

        monkeypatch.setattr(QuerySession, "fill_ahead", spy)
        vectorized = ServingSimulator(tissue_flat, config).run(clients, fleet(), lockstep=True)
        assert dataclasses.asdict(vectorized) == dataclasses.asdict(reference)
        assert vectorized.breaker_opens > 0 and vectorized.degraded_ticks > 0

        # Faults rule out plan sharing and nobody is staggered: every
        # tick fills one record per client, in client order.
        assert len(filled) == n_clients * n_queries
        ticks = [filled[t : t + n_clients] for t in range(0, len(filled), n_clients)]
        assert any({predicted for predicted, _, _ in tick} == {True, False} for tick in ticks)
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
        assert n_steps > 2 * batched[1]._chunk  # a third chunk stays for get()

        resolve_ahead(tissue_flat, [])  # an empty plan: nothing to resolve, no probe
        resolve_ahead(tissue_flat, batched)
        assert [len(stream._resolved) for stream in batched] == [3, 8, 3]
        resolve_ahead(tissue_flat, batched)  # second chunk; the explicit ones are done
        assert [len(stream._resolved) for stream in batched] == [3, 16, 3]
        for lone, ahead in zip(alone, batched):
            for position in range(n_steps + 1):
                want, got = lone.get(position), ahead.get(position)
                assert (want is None and got is None) or np.array_equal(want, got)
                assert want is None or want.dtype == got.dtype
        assert len(batched[1]._resolved) == n_steps

    def test_filled_bundle_at_the_wrong_cursor_raises(self, tissue, tissue_flat):
        clients = multiclient_sessions(tissue, n_clients=1, seed=5, n_queries=3, volume=30_000.0)
        sequence = clients[0].sequence
        engine = SimulationEngine(tissue_flat)
        session = QuerySession(engine, sequence, EWMAPrefetcher(lam=0.3))
        work = session.fill_ahead(tissue_flat.query(sequence.queries[0].bounds))
        assert work.prediction_cost is not None
        session.step_query(None, work)
        with pytest.raises(ValueError, match="bundle for query 0 replayed at cursor 1"):
            session.step_query(None, work)
        assert session.query_index == 1 and len(session.metrics.records) == 1


class TestPlanSharing:
    def test_followers_actually_replay_the_leader(self, tissue, tissue_flat):
        """Plan sharing must engage (else the equivalence tests are vacuous).

        Followers of a shared hot sequence skip ``observe()`` entirely,
        so their prefetcher history stays empty -- observable proof the
        leader's bundle, not a recomputation, served them.
        """
        clients = multiclient_sessions(
            tissue, n_clients=4, seed=5, n_queries=4, volume=30_000.0,
            mode="hotspot", hot_pool=1,
        )
        prefetchers = [EWMAPrefetcher(lam=0.3) for _ in clients]
        ServingSimulator(tissue_flat).run(clients, prefetchers, lockstep=True)
        histories = [len(p._centers) for p in prefetchers]
        assert histories[0] == 4  # the leader observed every query
        assert histories[1:] == [0, 0, 0]  # followers replayed, never observed

    def test_heterogeneous_fleet_disables_sharing(self, tissue, tissue_flat):
        """Mixed prefetcher configs must not share plans -- and stay exact."""
        clients = multiclient_sessions(
            tissue, n_clients=3, seed=5, n_queries=4, volume=30_000.0,
            mode="hotspot", hot_pool=1,
        )

        def fleet():
            return [EWMAPrefetcher(lam=0.3), EWMAPrefetcher(lam=0.7),
                    StraightLinePrefetcher()]

        reference = ServingSimulator(tissue_flat).run(clients, fleet(), lockstep=False)
        vectorized = ServingSimulator(tissue_flat).run(clients, fleet(), lockstep=True)
        assert report_state(vectorized) == report_state(reference)


class TestAggregateCarryThrough:
    """Satellite fix: ``to_aggregate`` must not drop contention counters."""

    def test_to_aggregate_carries_contention_counters(self, tissue, tissue_flat):
        report = serve(
            tissue, tissue_flat, n_clients=4, kind="scout", mode="hotspot",
            hot_pool=1, stagger=1, n_queries=8, lockstep=False,
        )
        assert report.cross_client_hits > 0  # the interesting case
        pooled = report.to_aggregate()
        assert pooled.cross_client_hits == report.cross_client_hits
        assert pooled.evicted_misses == report.evicted_misses

    def test_serving_metrics_round_trip_through_store_schema(
        self, tissue, tissue_flat
    ):
        report = serve(tissue, tissue_flat, n_clients=2, n_queries=3,
                       lockstep=False)
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
