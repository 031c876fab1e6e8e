"""Serving layer: QuerySession stepping + multi-client simulator.

Two load-bearing guarantees are pinned here:

* **single-client equivalence** -- the ``QuerySession`` refactor and
  ``ServingSimulator`` with one client are *bit-identical* to the
  classic ``SimulationEngine.run`` loop (the golden-metrics suite pins
  the same property against the frozen fixtures);
* **shared-cache accounting** -- under any interleaving (client count,
  stagger, contention mode, cache size), the per-client hit/miss
  counters partition the shared cache's own totals exactly.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import EWMAPrefetcher, NoPrefetcher, Prefetcher
from repro.core import ScoutPrefetcher
from repro.sim import (
    QuerySession,
    ServingSimulator,
    SimulationConfig,
    SimulationEngine,
)
from repro.storage import (
    DiskModel,
    FaultPlan,
    PrefetchCache,
    ShardedCache,
    ShardSpec,
    StorageSpec,
    TieredStore,
)
from repro.workload import generate_sequences, multiclient_sessions
from repro.workload.multiclient import zipf_weights
from tests.oracles.serving import RoundRobinSimulator


def make_prefetcher(kind: str, tissue):
    if kind == "scout":
        return ScoutPrefetcher(tissue)
    return EWMAPrefetcher(lam=0.3)


def serve(tissue, index, *, n_clients, kind="ewma", mode="independent",
          stagger=0, cache_pages=None, n_queries=6, seed=5, hot_pool=2):
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
    return ServingSimulator(index, config).run(clients, prefetchers)


class _NeverConsulted(Prefetcher):
    """A follower's prefetcher: replaying a filled record must not touch it."""

    name = "never"

    def _refuse(self, *args):
        raise AssertionError("replay consulted the follower's prefetcher")

    observe = plan = prediction_cost_seconds = graph_build_cost_seconds = _refuse
    gap_io_pages = _refuse


def lead_and_follow(engine, sequence, make, mode):
    """The follower replays the leader's pure work; private caches.

    ``capture``: the leader captures each query as it steps it.
    ``tape``: the leader builds the walk's plan tape before stepping,
    then replays it like the follower does.
    """
    leader = QuerySession(engine, sequence, make())
    follower = QuerySession(engine, sequence, _NeverConsulted())
    tape = leader.plan_tape() if mode == "tape" else None
    while not leader.done:
        if tape is None:
            work = leader.step_query_capture()
        else:
            work = tape[leader.query_index]
            leader.step_query_replay(work)
        assert work.cursor == follower.query_index
        assert follower.step_query_replay(work) is follower.metrics.records[-1]
    return leader, follower


class TestQuerySession:
    def test_finished_session_steps_to_none(self, tissue, tissue_flat):
        sequence = generate_sequences(tissue, 1, 5, n_queries=3, volume=30_000.0)[0]
        session = QuerySession(SimulationEngine(tissue_flat), sequence, EWMAPrefetcher())
        records = []
        while not session.done:
            assert session.query_index == len(records)
            records.append(session.step_query())
        assert records == session.metrics.records and len(records) == 3
        assert session.step_query() is None
        assert session.step_query_capture() is None
        assert session.metrics.records == records

    @pytest.mark.parametrize(
        "make, mode",
        [
            pytest.param(partial(EWMAPrefetcher, lam=0.3), "capture", id="ewma-capture"),
            pytest.param(NoPrefetcher, "capture", id="planless-capture"),
            # Only a position-only fleet is taped: its walk kernel plans the tape.
            pytest.param(partial(EWMAPrefetcher, lam=0.3), "tape", id="ewma-tape"),
        ],
    )
    def test_capture_then_replay_equals_independent_steps(
        self, tissue, tissue_flat, make, mode
    ):
        """The shared-work record: leader fills it, follower only reads it."""
        sequence = generate_sequences(tissue, 1, 7, n_queries=6, volume=30_000.0)[0]
        engine = SimulationEngine(tissue_flat)
        leader, follower = lead_and_follow(engine, sequence, make, mode)
        reference = engine.run(sequence, make())
        assert leader.metrics.records == reference.records
        assert follower.metrics.records == reference.records
        assert follower.done

    @pytest.mark.parametrize("mode", ["capture", "tape"])
    def test_replay_across_a_window_that_closes_mid_plan(self, tissue, tissue_flat, mode):
        """Each member consumes its own prefix of the shared probe streams."""
        sequence = generate_sequences(
            tissue, 1, 7, n_queries=6, volume=30_000.0, window_ratio=0.1
        )[0]
        engine = SimulationEngine(tissue_flat)
        make = partial(EWMAPrefetcher, lam=0.3)
        leader, follower = lead_and_follow(engine, sequence, make, mode)
        reference = engine.run(sequence, make())
        # The window ran out while the plan still had regions to read.
        cut_short = [
            r for r in reference.records
            if r.prefetch_pages and r.prefetch_seconds + r.prediction_seconds >= r.window_seconds
        ]
        assert cut_short
        assert leader.metrics.records == reference.records
        assert follower.metrics.records == reference.records

    def test_pre_resolved_result_changes_nothing(self, tissue, tissue_flat, monkeypatch):
        sequence = generate_sequences(tissue, 1, 7, n_queries=5, volume=30_000.0)[0]
        engine = SimulationEngine(tissue_flat)
        reference = engine.run(sequence, EWMAPrefetcher(lam=0.3))
        results = tissue_flat.query_many([q.bounds for q in sequence.queries])

        def no_query(bounds):
            raise AssertionError("the session re-queried a pre-resolved result")

        monkeypatch.setattr(tissue_flat, "query", no_query)
        monkeypatch.setattr(tissue_flat, "query_many", no_query)
        session = QuerySession(engine, sequence, EWMAPrefetcher(lam=0.3), results=results)
        for _ in results:
            session.step_query(session.fill_ahead())
        assert session.done
        assert session.metrics.records == reference.records

    def test_replay_at_the_wrong_cursor_raises(self, tissue, tissue_flat):
        sequence = generate_sequences(tissue, 1, 5, n_queries=3, volume=30_000.0)[0]
        engine = SimulationEngine(tissue_flat)
        work = QuerySession(engine, sequence, EWMAPrefetcher()).step_query_capture()
        follower = QuerySession(engine, sequence, EWMAPrefetcher())
        follower.step_query_replay(work)
        with pytest.raises(ValueError, match="bundle for query 0 replayed at cursor 1"):
            follower.step_query_replay(work)
        assert follower.query_index == 1 and len(follower.metrics.records) == 1

    @pytest.mark.parametrize("kind", ["ewma", "scout"])
    def test_session_matches_engine_run(self, tissue, tissue_flat, kind):
        sequence = generate_sequences(tissue, 1, 7, n_queries=6, volume=30_000.0)[0]
        engine = SimulationEngine(tissue_flat)
        via_session = QuerySession(engine, sequence, make_prefetcher(kind, tissue)).run()
        via_run = engine.run(sequence, make_prefetcher(kind, tissue))
        assert via_session.records == via_run.records


class TestSingleClientEquivalence:
    @pytest.mark.parametrize("kind", ["ewma", "scout"])
    def test_one_client_bit_identical_to_engine(self, tissue, tissue_flat, kind):
        """ServingSimulator(n_clients=1) reproduces SimulationEngine.run."""
        clients = multiclient_sessions(
            tissue, n_clients=1, seed=5, n_queries=8, volume=30_000.0
        )
        report = ServingSimulator(tissue_flat).run(
            clients, [make_prefetcher(kind, tissue)]
        )
        reference = SimulationEngine(tissue_flat).run(
            clients[0].sequence, make_prefetcher(kind, tissue)
        )
        assert report.clients[0].metrics.records == reference.records
        assert report.to_aggregate().cache_hit_rate == reference.cache_hit_rate
        # One client cannot cross-hit or be evicted by anyone else at
        # the default (auto) cache size.
        assert report.cross_client_hits == 0

    def test_independent_sessions_match_single_client_sequences(self, tissue):
        clients = multiclient_sessions(
            tissue, n_clients=3, seed=5, n_queries=4, volume=30_000.0
        )
        reference = generate_sequences(
            tissue, n_sequences=3, seed=5, n_queries=4, volume=30_000.0
        )
        for client, sequence in zip(clients, reference):
            assert [q.center.tolist() for q in client.sequence.queries] == [
                q.center.tolist() for q in sequence.queries
            ]


class TestSharedCacheAccounting:
    @settings(deadline=None, max_examples=20)
    @given(
        n_clients=st.integers(min_value=1, max_value=4),
        stagger=st.integers(min_value=0, max_value=3),
        cache_pages=st.one_of(st.none(), st.integers(min_value=8, max_value=64)),
        mode=st.sampled_from(["independent", "hotspot"]),
        seed=st.integers(min_value=0, max_value=2**20),
    )
    def test_client_touches_partition_cache_totals(
        self, tissue, tissue_flat, n_clients, stagger, cache_pages, mode, seed
    ):
        """Per-client hits+misses sum to the shared cache's counters."""
        report = serve(
            tissue,
            tissue_flat,
            n_clients=n_clients,
            mode=mode,
            stagger=stagger,
            cache_pages=cache_pages,
            n_queries=4,
            seed=seed,
        )
        assert sum(c.shared_hits for c in report.clients) == report.cache_hits
        assert sum(c.shared_misses for c in report.clients) == report.cache_misses
        for client in report.clients:
            records = client.metrics.records
            assert client.shared_hits == sum(r.pages_hit for r in records)
            assert client.shared_misses == sum(r.pages_needed - r.pages_hit for r in records)
            assert 0 <= client.cross_client_hits <= client.shared_hits
            assert 0 <= client.evicted_misses <= client.shared_misses

    def test_serving_run_is_deterministic(self, tissue, tissue_flat):
        a = serve(tissue, tissue_flat, n_clients=3, mode="hotspot", stagger=1)
        b = serve(tissue, tissue_flat, n_clients=3, mode="hotspot", stagger=1)
        assert a.to_aggregate() == b.to_aggregate()
        assert [c.cross_client_hits for c in a.clients] == [
            c.cross_client_hits for c in b.clients
        ]

    def test_hotspot_clients_share_prefetched_pages(self, tissue, tissue_flat):
        """Followers of a hot walk hit pages the leader prefetched."""
        report = serve(
            tissue, tissue_flat, n_clients=4, kind="scout", mode="hotspot",
            hot_pool=1, stagger=1, n_queries=8,
        )
        assert report.cross_client_hits > 0

    def test_tiny_shared_cache_induces_eviction_misses(self, tissue, tissue_flat):
        report = serve(
            tissue, tissue_flat, n_clients=4, kind="scout", cache_pages=12,
            n_queries=8,
        )
        assert report.cache_evictions > 0
        assert report.evicted_misses > 0

    def test_report_shape(self, tissue, tissue_flat):
        report = serve(tissue, tissue_flat, n_clients=2, n_queries=3)
        assert len(report.clients) == 2
        aggregate = report.to_aggregate()
        assert aggregate.n_sequences == 2
        assert aggregate.per_sequence_hit_rates == [
            client.metrics.cache_hit_rate for client in report.clients
        ]
        assert 0.0 <= report.aggregate_hit_rate <= 1.0


class TestDisabledLayerIsNotBuilt:
    """The one pass-through rule: a spec that cannot change behaviour
    builds nothing (``SimulationConfig.build_disk`` / ``build_cache``)."""

    @pytest.mark.parametrize(
        "layer,spec",
        [
            pytest.param("faults", FaultPlan(), id="zero-rate-plan"),
            pytest.param("faults", FaultPlan(breaker=False), id="zero-rate-plan-no-breaker"),
            pytest.param("storage", StorageSpec(), id="default-storage"),
            pytest.param("shards", ShardSpec(n_shards=1), id="one-shard"),
            pytest.param(
                "shards", ShardSpec(n_shards=1, shard_cache_pages=32), id="one-sized-shard"
            ),
        ],
    )
    def test_inert_spec_builds_and_serves_as_the_bare_stack(
        self, tissue, tissue_flat, layer, spec
    ):
        config = SimulationConfig(cache_capacity_pages=48, **{layer: spec})
        capacity = getattr(spec, "shard_cache_pages", None) or 48
        assert type(config.build_disk(tissue_flat)) is DiskModel
        cache = config.build_cache(tissue_flat)
        assert type(cache) is PrefetchCache
        assert cache.capacity_pages == capacity

        clients = multiclient_sessions(
            tissue, n_clients=6, seed=5, n_queries=4, volume=30_000.0,
            mode="hotspot", hot_pool=2,
        )

        def report(config):
            fleet = [EWMAPrefetcher(lam=0.3) for _ in clients]
            return asdict(ServingSimulator(tissue_flat, config).run(clients, fleet))

        served = report(config)
        bare = report(SimulationConfig(cache_capacity_pages=capacity))
        # The gates read the config: a present plan flags its (all-zero)
        # counters into the record; inactive tiers and shards flag nothing.
        assert served.pop("faults_active") is (layer == "faults")
        assert bare.pop("faults_active") is False
        assert served == bare

    def test_mmap_store_is_still_built(self, tissue_flat):
        """It serves real bytes, so tiering off does not make it inert;
        it is bound to the index's page table where it is built."""
        disk = SimulationConfig(storage=StorageSpec(backend="mmap")).build_disk(tissue_flat)
        assert type(disk) is TieredStore
        assert not disk.spec.tiering_active
        assert disk._pagefile.n_pages == tissue_flat.page_table.n_pages
        disk.close()


class TestOneCacheClass:
    """The scheduler and its round-robin oracle serve from the dict cache;
    nothing selects another."""

    @pytest.mark.parametrize(
        "shards", [None, ShardSpec(n_shards=2, partition="hash")], ids=["plain", "sharded"]
    )
    def test_both_schedulers_hand_their_sessions_the_same_cache_type(
        self, monkeypatch, tissue, tissue_flat, shards
    ):
        handed = []

        class Spy(QuerySession):
            def __init__(self, *args, cache, **kwargs):
                handed.append(cache)
                super().__init__(*args, cache=cache, **kwargs)

        monkeypatch.setattr("repro.sim.serve.QuerySession", Spy)
        clients = multiclient_sessions(
            tissue, n_clients=3, seed=5, n_queries=2, volume=30_000.0
        )
        config = SimulationConfig(cache_capacity_pages=48, shards=shards)
        for simulator in (
            RoundRobinSimulator(tissue_flat, config),
            ServingSimulator(tissue_flat, config),
        ):
            handed.clear()
            simulator.run(clients, [EWMAPrefetcher(lam=0.3) for _ in clients])
            shared = handed[0]
            assert len(handed) == 3 and all(cache is shared for cache in handed)
            if shards is None:
                assert type(shared) is PrefetchCache
            else:
                assert type(shared) is ShardedCache
                assert [type(shard) for shard in shared.shards] == [PrefetchCache] * 2


class TestServingValidation:
    def test_prefetcher_count_must_match_clients(self, tissue, tissue_flat):
        clients = multiclient_sessions(
            tissue, n_clients=2, seed=5, n_queries=2, volume=30_000.0
        )
        with pytest.raises(ValueError, match="each client needs its own"):
            ServingSimulator(tissue_flat).run(clients, [EWMAPrefetcher()])

    def test_empty_client_list_rejected(self, tissue_flat):
        with pytest.raises(ValueError, match="at least one client"):
            ServingSimulator(tissue_flat).run([], [])


class TestMulticlientWorkload:
    def test_staggered_start_ticks(self, tissue):
        clients = multiclient_sessions(
            tissue, n_clients=3, seed=5, n_queries=2, volume=30_000.0, stagger=2
        )
        assert [c.start_tick for c in clients] == [0, 2, 4]
        assert [c.client_id for c in clients] == [0, 1, 2]

    def test_hotspot_draws_from_pool(self, tissue):
        clients = multiclient_sessions(
            tissue, n_clients=6, seed=5, n_queries=2, volume=30_000.0,
            mode="hotspot", hot_pool=2,
        )
        distinct = {id(c.sequence) for c in clients}
        assert len(distinct) <= 2  # at most the pool size
        assert len(clients) == 6

    def test_zipf_weights_normalized_and_skewed(self):
        weights = zipf_weights(5, 1.2)
        assert weights.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))
        with pytest.raises(ValueError):
            zipf_weights(0, 1.0)
        with pytest.raises(ValueError):
            zipf_weights(3, -0.5)

    def test_rejects_bad_arguments(self, tissue):
        with pytest.raises(ValueError, match="n_clients"):
            multiclient_sessions(tissue, 0, 5, n_queries=2, volume=30_000.0)
        with pytest.raises(ValueError, match="stagger"):
            multiclient_sessions(tissue, 1, 5, n_queries=2, volume=30_000.0, stagger=-1)
        with pytest.raises(ValueError, match="unknown mode"):
            multiclient_sessions(tissue, 1, 5, n_queries=2, volume=30_000.0, mode="flood")
