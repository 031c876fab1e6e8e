"""Sharded cache plane: differential equivalence and partition laws.

The sharded data plane (DESIGN.md §10) is only allowed to move pages
between simulated nodes -- never to change what a consumer observes
when it isn't sharding.  This suite pins the contract from four sides:

* **K=1 pass-through**: a one-shard :class:`ShardedCache` is op-by-op
  identical to the bare backend it wraps -- same return values, same
  counters, same LRU listing -- over hypothesis-generated op sequences,
  for both cache classes (constructed directly: only the dict cache is
  ever built by a config).  This is the invariant that lets a disabled
  spec ride inside every golden fixture without regenerating them.
* **Partition laws**: routing is a total function onto ``[0, K)``,
  batch routing equals scalar routing elementwise, and per-shard
  counters exactly partition the top-level totals -- for both
  partitioning schemes, with and without rebalancing.
* **Serving invariance**: for a fixed multi-client workload the demand
  stream is partition-invariant (the total per-shard request count does
  not depend on K or the scheme), and the round-robin and lockstep
  schedulers produce bit-identical reports *through* a sharded cache,
  rebalancer included; the K = 8 hot-shard scale-out is pinned exactly
  in simulated q/s.
* **Determinism**: two identically-specced caches fed the same touch
  sequence rebalance identically -- same split keys, same event and
  moved-page counts, same per-shard stats.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import EWMAPrefetcher
from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.sim import ServingSimulator, SimulationConfig
from repro.sim.results import metrics_from_dict, metrics_to_dict
from repro.storage.cache import ArrayCache, PrefetchCache
from repro.storage.sharded import (
    PARTITIONS,
    ShardSpec,
    ShardedCache,
    make_sharded_cache,
    page_hilbert_keys,
)
from repro.workload import multiclient_sessions

# -- op-sequence machinery ----------------------------------------------------------

PAGE_IDS = st.integers(0, 63)
PAGE_BATCHES = st.lists(PAGE_IDS, min_size=0, max_size=8)

OPS = st.one_of(
    st.tuples(st.just("touch"), PAGE_IDS),
    st.tuples(st.just("insert"), PAGE_IDS, st.sampled_from([None, 0, 1, 2])),
    st.tuples(st.just("insert_many"), PAGE_BATCHES, st.sampled_from([None, 0, 3])),
    st.tuples(st.just("discard"), PAGE_IDS),
    st.tuples(st.just("touch_many"), PAGE_BATCHES),
    st.tuples(st.just("contains_many"), PAGE_BATCHES),
    st.tuples(st.just("missing_many"), PAGE_BATCHES),
    st.tuples(st.just("owners_many"), PAGE_BATCHES),
    st.tuples(st.just("evicted_many"), PAGE_BATCHES),
)


def apply_op(cache, op):
    """Run one op; returns a comparable (hashable/listable) result."""
    name, *operands = op
    result = getattr(cache, name)(*operands)
    if isinstance(result, np.ndarray):
        return result.tolist()
    return result


def observable_state(cache) -> tuple:
    """Everything the cache contract exposes, comparably flattened."""
    return (
        len(cache),
        cache.capacity_pages,
        cache.is_full,
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.insertions,
        cache.hit_rate,
        cache.cached_pages(),
    )


class TestPassThroughEquivalence:
    """K=1 is the bare backend: every op, every counter, every listing."""

    @settings(max_examples=60, deadline=None)
    @given(backend=st.sampled_from([PrefetchCache, ArrayCache]), ops=st.lists(OPS, max_size=40))
    def test_one_shard_matches_bare_backend(self, backend, ops):
        bare = backend(8)
        sharded = ShardedCache(ShardSpec(n_shards=1), [backend(8)])
        for op in ops:
            assert apply_op(sharded, op) == apply_op(bare, op), op
            assert observable_state(sharded) == observable_state(bare), op
        assert sharded.hops == 0
        assert sharded.hop_seconds == 0.0
        assert sharded.rebalance_events == 0
        assert sharded.pages_moved == 0

    def test_one_shard_scalar_inspection_matches(self):
        bare = PrefetchCache(4)
        sharded = ShardedCache(ShardSpec(n_shards=1), [PrefetchCache(4)])
        for cache in (bare, sharded):
            cache.insert_many([3, 5, 9], owner=2)
            cache.touch_many([3, 7, 11])
            cache.insert_many(range(6), owner=1)  # evicts
        for page in range(16):
            assert (page in sharded) == (page in bare)
            assert sharded.owner_of(page) == bare.owner_of(page)
            assert sharded.was_evicted(page) == bare.was_evicted(page)
        sharded.clear()
        bare.clear()
        assert observable_state(sharded) == observable_state(bare)
        sharded.reset_stats()
        bare.reset_stats()
        assert observable_state(sharded) == observable_state(bare)


# -- partition laws -----------------------------------------------------------------


def hash_cache(k: int, *, pages_per_shard: int = 4) -> ShardedCache:
    return ShardedCache(
        ShardSpec(n_shards=k, partition="hash"),
        [PrefetchCache(pages_per_shard) for _ in range(k)],
    )


def hilbert_cache(index, k: int, *, pages_per_shard: int = 4, **spec_kwargs):
    spec = ShardSpec(
        n_shards=k,
        partition="hilbert",
        shard_cache_pages=pages_per_shard,
        **spec_kwargs,
    )
    return make_sharded_cache(spec, 0, index=index)


class TestPartitionLaws:
    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("k", [2, 3, 8])
    def test_routing_is_total_and_batch_equals_scalar(
        self, tissue_flat, partition, k
    ):
        if partition == "hash":
            cache = hash_cache(k)
        else:
            cache = hilbert_cache(tissue_flat, k)
        pages = np.arange(tissue_flat.page_table.n_pages, dtype=np.int64)
        routed = cache.route_many(pages)
        assert routed.min() >= 0 and routed.max() < k
        assert [cache.route(int(p)) for p in pages] == routed.tolist()

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 6), ops=st.lists(OPS, max_size=30))
    def test_per_shard_counters_partition_the_totals(self, k, ops):
        cache = hash_cache(k)
        for op in ops:
            apply_op(cache, op)
        per = cache.per_shard_stats()
        assert len(per) == k
        assert sum(s["hits"] for s in per) == cache.hits
        assert sum(s["misses"] for s in per) == cache.misses
        assert sum(s["evictions"] for s in per) == cache.evictions
        assert sum(s["insertions"] for s in per) == cache.insertions
        assert sum(s["occupancy"] for s in per) == len(cache)
        assert sum(s["capacity_pages"] for s in per) == cache.capacity_pages

    def test_each_page_lands_only_on_its_owning_shard(self, tissue_flat):
        cache = hilbert_cache(tissue_flat, 4)
        n_pages = tissue_flat.page_table.n_pages
        cache.insert_many(np.arange(n_pages), owner=1)
        for shard_id, shard in enumerate(cache.shards):
            for page in shard.cached_pages():
                assert cache.route(page) == shard_id

    def test_capacity_split_covers_the_total(self):
        for total, k in [(10, 3), (8, 8), (5, 2), (0, 4)]:
            cache = make_sharded_cache(ShardSpec(n_shards=k, partition="hash"), total)
            assert cache.capacity_pages == total
        pinned = make_sharded_cache(
            ShardSpec(n_shards=3, partition="hash", shard_cache_pages=7), 999
        )
        assert [s.capacity_pages for s in pinned.shards] == [7, 7, 7]

    def test_hop_accounting_charges_per_extra_shard(self, tissue_flat):
        cache = hilbert_cache(tissue_flat, 4, hop_latency_s=0.25)
        pages = np.arange(tissue_flat.page_table.n_pages, dtype=np.int64)
        routed = cache.route_many(pages)
        span = int(np.unique(routed).size)
        assert span == 4  # the whole table fans out to every shard
        cache.touch_many(pages)
        assert cache.hops == span - 1
        assert cache.hop_seconds == pytest.approx((span - 1) * 0.25)
        one_shard = pages[routed == routed[0]]
        before = cache.hops
        cache.touch_many(one_shard)
        assert cache.hops == before  # single-shard batches are hop-free

    def test_split_keys_cut_near_equal_page_counts(self, tissue_flat):
        """Range splits balance pages up to boundary-key multiplicity.

        Pages sharing a Hilbert key are inseparable (they land on one
        shard by construction), so the per-shard page counts can differ
        from ``n / K`` by at most the heaviest key's multiplicity on
        each boundary.
        """
        keys = page_hilbert_keys(tissue_flat, bits=6)
        cache = hilbert_cache(tissue_flat, 4)
        routed = cache.route_many(np.arange(keys.size))
        counts = np.bincount(routed, minlength=4)
        heaviest = int(np.unique(keys, return_counts=True)[1].max())
        ideal = keys.size / 4
        assert np.all(np.abs(counts - ideal) <= heaviest + 1), counts


class TestSpecValidation:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(n_shards=0), "n_shards"),
            (dict(partition="range"), "unknown partition"),
            (dict(shard_cache_pages=-1), "shard_cache_pages"),
            (dict(hop_latency_s=-0.1), "hop_latency_s"),
            (dict(n_shards=2, partition="hash", rebalance=True), "rebalance requires"),
            (dict(rebalance_lambda=0.0), "rebalance_lambda"),
            (dict(rebalance_threshold=1.0), "rebalance_threshold"),
            (dict(rebalance_interval=0), "rebalance_interval"),
            (dict(hilbert_bits=0), "hilbert_bits"),
            (dict(hilbert_bits=17), "hilbert_bits"),
        ],
    )
    def test_bad_specs_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ShardSpec(**kwargs)

    def test_spec_round_trips_through_dict(self):
        spec = ShardSpec(n_shards=4, partition="hilbert", rebalance=True, hilbert_bits=5)
        assert ShardSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="unknown shard spec key"):
            ShardSpec.from_dict({"n_shards": 2, "replicas": 3})

    def test_wrapper_rejects_mismatched_shard_lists(self):
        with pytest.raises(ValueError, match="names 2 shards"):
            ShardedCache(ShardSpec(n_shards=2, partition="hash"), [PrefetchCache(4)])
        with pytest.raises(ValueError, match="per-page keys"):
            ShardedCache(
                ShardSpec(n_shards=2), [PrefetchCache(4), PrefetchCache(4)]
            )
        with pytest.raises(ValueError, match="spatial index"):
            make_sharded_cache(ShardSpec(n_shards=2), 8)


# -- rebalancer determinism ---------------------------------------------------------


def skewed_batches(index, *, n_batches: int = 200, seed: int = 3):
    """Touch batches hammering the pages of one shard-0-heavy key range."""
    rng = np.random.default_rng(seed)
    keys = page_hilbert_keys(index, bits=6)
    hot = np.argsort(keys)[: max(4, keys.size // 8)]
    return [rng.choice(hot, size=6) for _ in range(n_batches)]


class TestRebalancer:
    def _fresh(self, index):
        return hilbert_cache(
            index, 4, pages_per_shard=8, rebalance=True, rebalance_interval=8
        )

    def test_skewed_load_triggers_deterministic_rebalancing(self, tissue_flat):
        batches = skewed_batches(tissue_flat)
        first, second = self._fresh(tissue_flat), self._fresh(tissue_flat)
        for cache in (first, second):
            for batch in batches:
                cache.insert_many(batch)
                cache.touch_many(batch)
        assert first.rebalance_events > 0
        assert first.rebalance_events == second.rebalance_events
        assert first.pages_moved == second.pages_moved
        assert np.array_equal(first.split_keys, second.split_keys)
        assert first.per_shard_stats() == second.per_shard_stats()
        assert first.cached_pages() == second.cached_pages()

    def test_rebalance_moves_pages_without_eviction_accounting(self, tissue_flat):
        cache = self._fresh(tissue_flat)
        for batch in skewed_batches(tissue_flat):
            cache.insert_many(batch, owner=1)
            cache.touch_many(batch)
        assert cache.rebalance_events > 0
        # Moved pages migrated, they did not die: every cached page is
        # still findable through routing, with its owner tag intact.
        for page in cache.cached_pages():
            assert page in cache
            assert cache.owner_of(page) == 1

    def test_split_keys_stay_sorted_across_rebalances(self, tissue_flat):
        cache = self._fresh(tissue_flat)
        for batch in skewed_batches(tissue_flat, n_batches=400, seed=9):
            cache.insert_many(batch)
            cache.touch_many(batch)
            splits = cache.split_keys
            assert np.all(np.diff(splits) >= 0)


# -- owner table and list-native fan-out -----------------------------------------------


class _ScalarRouted:
    """The batch ops as the scalar-routed loop: one page, one shard, at a time."""

    def __init__(self, cache: ShardedCache) -> None:
        self.cache = cache  # routing only; the shards below are this model's own
        self.shards = [PrefetchCache(shard.capacity_pages) for shard in cache.shards]
        self.hops = 0

    def _shard(self, page):
        return self.shards[self.cache.route(int(page))]

    def touch_many(self, pages):
        pages = [int(p) for p in pages]
        self.hops += max(0, len({self.cache.route(p) for p in pages}) - 1)
        return [self._shard(p).touch(p) for p in pages]

    def insert_many(self, pages, owner=None):
        for page in pages:
            self._shard(page).insert(int(page), owner)

    def contains_many(self, pages):
        return [int(p) in self._shard(p) for p in pages]

    def missing_many(self, pages):
        return [int(p) for p in pages if int(p) not in self._shard(p)]

    def owners_many(self, pages):
        owners = [self._shard(p).owner_of(int(p)) for p in pages]
        return [-1 if owner is None else owner for owner in owners]

    def evicted_many(self, pages):
        return [self._shard(p).was_evicted(int(p)) for p in pages]

    def state(self):
        counters = [(s.hits, s.misses, s.evictions, s.insertions) for s in self.shards]
        return counters, [s.cached_pages() for s in self.shards], self.hops


def _sharded_state(cache: ShardedCache):
    counters = [(s.hits, s.misses, s.evictions, s.insertions) for s in cache.shards]
    return counters, [s.cached_pages() for s in cache.shards], cache.hops


#: How a caller may hand a batch in; each must read like the plain list.
BATCH_FORMS = {
    "list": list,
    "generator": lambda pages: (p for p in pages),
    "int32": lambda pages: np.array(pages, dtype=np.int32),
    "int64": lambda pages: np.array(pages, dtype=np.int64),
    "range": lambda pages: range(pages[0], pages[0] + len(pages)) if pages else range(0),
}

BATCH_OPS = st.tuples(
    st.sampled_from(
        ["touch_many", "insert_many", "contains_many", "missing_many", "owners_many",
         "evicted_many"]
    ),
    st.lists(st.integers(0, 63), max_size=10),  # duplicates and unsorted included
    st.sampled_from(sorted(BATCH_FORMS)),
    st.sampled_from([None, 0, 3]),
)


class TestOwnerTableAndFanOut:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 50), n_batches=st.integers(0, 120), k=st.sampled_from([2, 4, 8]))
    def test_owner_table_tracks_the_split_keys(self, tissue_flat, seed, n_batches, k):
        cache = hilbert_cache(
            tissue_flat, k, pages_per_shard=8, rebalance=True, rebalance_interval=4
        )
        keys = page_hilbert_keys(tissue_flat, bits=6)
        for batch in skewed_batches(tissue_flat, n_batches=n_batches, seed=seed):
            cache.insert_many(batch)
            cache.touch_many(batch)
        expected = np.searchsorted(cache.split_keys, keys, side="right")
        pages = np.arange(keys.size)
        assert np.array_equal(cache.route_many(pages), expected)
        for page in pages.tolist():
            assert cache.route(page) == expected[page] == cache.route_many([page])[0]

    @settings(max_examples=80, deadline=None)
    @given(partition=st.sampled_from(PARTITIONS), ops=st.lists(BATCH_OPS, max_size=30))
    def test_every_batch_op_equals_the_scalar_routed_loop(self, tissue_flat, partition, ops):
        if partition == "hash":
            cache = hash_cache(4, pages_per_shard=3)
        else:
            cache = hilbert_cache(tissue_flat, 4, pages_per_shard=3)
        model = _ScalarRouted(cache)
        for name, pages, form, owner in ops:
            if form == "range" and pages:
                pages = list(BATCH_FORMS["range"](pages))
            args = (owner,) if name == "insert_many" else ()
            got = getattr(cache, name)(BATCH_FORMS[form](pages), *args)
            want = getattr(model, name)(pages, *args)
            if name == "insert_many":
                assert got is None
            else:
                assert (got if name == "missing_many" else got.tolist()) == want, (name, pages)
            assert _sharded_state(cache) == model.state(), (name, pages, form)

    def test_non_rebalancing_cache_keeps_no_load_history(self, tissue_flat):
        """Nothing reads the EWMA or the batch count with rebalancing off,
        so the demand path does not feed them -- and nothing a consumer
        can observe depends on it."""
        cache = hilbert_cache(tissue_flat, 4, pages_per_shard=8)
        model = _ScalarRouted(cache)
        for batch in skewed_batches(tissue_flat):
            cache.insert_many(batch, 1)
            model.insert_many(batch, 1)
            assert cache.touch_many(batch).tolist() == model.touch_many(batch)
        assert _sharded_state(cache) == model.state()
        assert cache.per_shard_stats() == [
            {
                "hits": shard.hits,
                "misses": shard.misses,
                "evictions": shard.evictions,
                "insertions": shard.insertions,
                "occupancy": len(shard),
                "capacity_pages": shard.capacity_pages,
            }
            for shard in model.shards
        ]
        assert cache.cached_pages() == [p for s in model.shards for p in s.cached_pages()]
        assert cache.rebalance_events == 0 and cache.pages_moved == 0
        assert cache._batches == 0 and not cache._ewma.any()

    def test_rebalance_trajectory_on_the_thrash_fleet_is_pinned(self, monkeypatch):
        """The e2e benchmark's ``fleet_thrash`` inputs at seed 7: every
        split move, in order, is the one the per-batch ``bincount``
        rebalancer made (digest recorded at PR 22)."""
        import hashlib

        from repro.storage.faults import FaultPlan
        from repro.storage.tiered import StorageSpec

        dataset = make_neuron_tissue(n_neurons=40, seed=7)
        index = FlatIndex(dataset, fanout=16)
        clients = multiclient_sessions(
            dataset, n_clients=64, seed=21, n_queries=16, volume=240_000.0,
            mode="independent", stagger=1,
        )
        config = SimulationConfig(
            cache_capacity_pages=64,
            shards=ShardSpec(n_shards=8, shard_cache_pages=64, rebalance=True),
            storage=StorageSpec(miss_path="combined", tier_pages=32),
            faults=FaultPlan(transient_rate=0.01, corrupt_rate=0.005, seed=7),
        )
        trajectory = []
        touch_many = ShardedCache.touch_many

        def spy(cache, pages):
            before = cache.rebalance_events
            hit = touch_many(cache, pages)
            if cache.rebalance_events != before:
                trajectory.append(
                    (cache.rebalance_events, cache.pages_moved, cache.split_keys.tolist())
                )
            return hit

        monkeypatch.setattr(ShardedCache, "touch_many", spy)
        prefetchers = [EWMAPrefetcher(lam=0.3) for _ in clients]
        report = ServingSimulator(index, config).run(clients, prefetchers, lockstep=True)
        assert (report.shard_rebalances, report.shard_pages_moved) == (30, 948)
        assert trajectory[-1] == (
            30, 948, [57076, 96058, 159945, 161733, 167692, 238061, 238812]
        )
        assert hashlib.sha256(repr(trajectory).encode()).hexdigest() == (
            "29e325643afec8814e77b87d4d08f0f7d26c860e93f49867539e3de062e01d9f"
        )
        assert report.to_aggregate().cache_hit_rate == 0.35404869472780426


# -- serving invariance -------------------------------------------------------------


def serve_sharded(tissue, index, shards, *, lockstep=False, n_clients=4):
    clients = multiclient_sessions(
        tissue,
        n_clients=n_clients,
        seed=21,
        n_queries=4,
        volume=30_000.0,
        mode="hotspot",
        stagger=1,
        hot_pool=1,
    )
    config = SimulationConfig(cache_capacity_pages=16, shards=shards)
    prefetchers = [EWMAPrefetcher(lam=0.3) for _ in clients]
    return ServingSimulator(index, config).run(clients, prefetchers, lockstep=lockstep)


class TestServingThroughShards:
    def test_disabled_spec_report_is_bit_identical_to_unsharded(
        self, tissue, tissue_flat
    ):
        bare = serve_sharded(tissue, tissue_flat, None)
        wrapped = serve_sharded(tissue, tissue_flat, ShardSpec(n_shards=1))
        assert dataclasses.asdict(wrapped) == dataclasses.asdict(bare)
        assert wrapped.shards_active is False
        assert wrapped.shard_requests is None

    @pytest.mark.parametrize("partition", PARTITIONS)
    @pytest.mark.parametrize("k", [2, 4])
    def test_round_robin_equals_lockstep_under_sharding(
        self, tissue, tissue_flat, partition, k
    ):
        spec = ShardSpec(n_shards=k, partition=partition, rebalance=partition == "hilbert")
        reference = serve_sharded(tissue, tissue_flat, spec, lockstep=False)
        vectorized = serve_sharded(tissue, tissue_flat, spec, lockstep=True)
        assert dataclasses.asdict(vectorized) == dataclasses.asdict(reference)

    def test_request_total_is_partition_invariant(self, tissue, tissue_flat):
        """The demand stream does not depend on K or the scheme.

        Every query touches its result pages whatever the layout, so
        ``sum(shard_requests)`` is a workload property: the same for
        hash and hilbert partitioning at every K, and equal to the
        cache's own hit+miss total.
        """
        totals = set()
        for partition in PARTITIONS:
            for k in (2, 4, 8):
                report = serve_sharded(
                    tissue, tissue_flat, ShardSpec(n_shards=k, partition=partition)
                )
                assert report.shards_active is True
                assert len(report.shard_requests) == k
                assert len(report.shard_hits) == k
                assert all(
                    h <= r for h, r in zip(report.shard_hits, report.shard_requests)
                )
                assert sum(report.shard_requests) == (
                    report.cache_hits + report.cache_misses
                )
                assert report.shard_rebalances == 0  # off unless the spec asks
                totals.add(sum(report.shard_requests))
        assert len(totals) == 1 and min(totals) > 0, totals

    def test_metrics_round_trip_preserves_shard_counters(self, tissue, tissue_flat):
        report = serve_sharded(tissue, tissue_flat, ShardSpec(n_shards=4))
        aggregate = report.to_aggregate()
        assert aggregate.shard_requests == report.shard_requests
        restored = metrics_from_dict(metrics_to_dict(aggregate))
        assert restored.shard_requests == aggregate.shard_requests
        assert restored.shard_hits == aggregate.shard_hits
        assert restored.shard_rebalances == aggregate.shard_rebalances
        assert restored.shard_pages_moved == aggregate.shard_pages_moved

    def test_hot_shard_scale_out_is_pinned(self):
        """The scale-out story, exact: K = 8 hot shards beat one cache.

        A Zipf-hot fleet over a deliberately tiny single cache thrashes
        -- most touches miss and pay demand reads -- then re-runs over
        K = 8 Hilbert shards with the same capacity *per shard* and
        rebalancing on: each shard is a node bringing its own memory
        arm.  The gain is read where the simulation accounts I/O,
        queries per *simulated* response second, a deterministic
        quantity for a fixed workload -- so every number is pinned with
        ``==`` (they held from BENCH_699e5a8 through the last revision
        the retired ``scout-repro bench`` ran on, where a floor of
        100 +- 10 % gated them).
        """
        dataset = make_neuron_tissue(n_neurons=16, seed=7)
        index = FlatIndex(dataset, fanout=16)
        clients = multiclient_sessions(
            dataset,
            n_clients=64,
            seed=21,
            n_queries=8,
            volume=240_000.0,
            mode="hotspot",
            stagger=0,
            hot_pool=8,
        )

        def serve(shards):
            config = SimulationConfig(cache_capacity_pages=64, shards=shards)
            prefetchers = [EWMAPrefetcher(lam=0.3) for _ in clients]
            return ServingSimulator(index, config).run(clients, prefetchers, lockstep=True)

        single = serve(None).to_aggregate()
        report = serve(ShardSpec(n_shards=8, shard_cache_pages=64, rebalance=True))
        sharded = report.to_aggregate()
        assert 512 / single.response_seconds == 39.38272198451996
        assert 512 / sharded.response_seconds == 101.50757919953736
        assert single.cache_hit_rate == 0.4891674504589239
        assert sharded.cache_hit_rate == 0.8862420134271722
        assert report.shard_rebalances == 16
        assert report.shard_pages_moved == 354
