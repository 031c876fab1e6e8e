"""Property-based tests for the LRU prefetch cache backends.

`tests/test_storage.py` pins example behaviours; these properties let
hypothesis search the operation space: the capacity bound must hold
after *every* operation, eviction must follow least-recently-used
order against an independent reference model, and bulk insertion must
be idempotent.

Every model-based property runs against **both** classes (the dict
:class:`PrefetchCache` every driver builds, and the slot-array
:class:`ArrayCache` kept as a reference), and the differential suite
drives the two with identical random operation sequences — owner tags,
eviction memory and batch calls included — and requires identical
observable state after every single step.  The batch contract itself
(any iterable of ints in, a list of plain ``bool`` / ``int`` out) is
held for both backends and a rebalancing sharded cache.  The caches
answer membership, owner and eviction questions only in batches, so the
reference for those is :class:`ModelLRU`.  A served query's one-pass
attribution (``attribute_many``) is held to the owner and eviction
lookups it replaced, on the dict cache and both sharded layouts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.cache import NO_OWNER, ArrayCache, PrefetchCache
from repro.storage.sharded import ShardedCache, ShardSpec, make_sharded_cache

#: Constructed directly: production builds only the dict cache.
CACHES = {"dict": PrefetchCache, "array": ArrayCache}

#: Small id universe so sequences collide (re-inserts, touch hits).
page_ids = st.integers(min_value=0, max_value=15)
capacities = st.integers(min_value=0, max_value=8)
owners = st.one_of(st.none(), st.integers(min_value=0, max_value=3))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), page_ids),
        st.tuples(st.just("touch"), page_ids),
        st.tuples(st.just("insert_many"), st.lists(page_ids, max_size=10)),
    ),
    max_size=40,
)

#: Richer operation mix for the differential suite: owner tags plus the
#: batch API, so every method of the shared contract gets exercised.
tagged_operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), page_ids, owners),
        st.tuples(st.just("touch"), page_ids, st.none()),
        st.tuples(st.just("insert_many"), st.lists(page_ids, max_size=10), owners),
        st.tuples(st.just("touch_many"), st.lists(page_ids, max_size=10), st.none()),
    ),
    max_size=40,
)


class ModelLRU:
    """Independent list-based reference model of the cache contract: LRU
    order, first-inserter owner tags and the eviction memory."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.pages: list[int] = []  # least-recently-used first
        self.owners: dict[int, int | None] = {}
        self.evicted: set[int] = set()

    def touch(self, page: int) -> bool:
        if page in self.pages:
            self.pages.remove(page)
            self.pages.append(page)
            return True
        return False

    def insert(self, page: int, owner: int | None = None) -> None:
        if self.capacity == 0:
            return
        if page in self.pages:
            self.pages.remove(page)
            self.pages.append(page)
            return
        while len(self.pages) >= self.capacity:
            gone = self.pages.pop(0)
            del self.owners[gone]
            self.evicted.add(gone)
        self.pages.append(page)
        self.owners[page] = owner
        self.evicted.discard(page)

    def owner(self, page: int) -> int:
        """The owner tag ``owners_many`` answers for ``page``."""
        owner = self.owners.get(page)
        return NO_OWNER if owner is None else owner


def apply(cache, model: ModelLRU, op) -> None:
    kind, arg = op
    if kind == "insert":
        cache.insert(arg)
        model.insert(arg)
    elif kind == "touch":
        cache.touch(arg)
        model.touch(arg)
    else:
        cache.insert_many(arg)
        for page in arg:
            model.insert(page)


@pytest.mark.parametrize("backend", CACHES)
@settings(deadline=None)
@given(capacity=capacities, ops=operations)
def test_capacity_invariant_holds_after_every_operation(backend, capacity, ops):
    cache = CACHES[backend](capacity)
    model = ModelLRU(capacity)
    for op in ops:
        apply(cache, model, op)
        assert len(cache) <= cache.capacity_pages


@pytest.mark.parametrize("backend", CACHES)
@settings(deadline=None)
@given(capacity=capacities, ops=operations)
def test_lru_eviction_order_matches_reference_model(backend, capacity, ops):
    """cached_pages() (LRU-first) tracks the model after every op."""
    cache = CACHES[backend](capacity)
    model = ModelLRU(capacity)
    for op in ops:
        apply(cache, model, op)
        assert cache.cached_pages() == model.pages


@pytest.mark.parametrize("backend", CACHES)
@settings(deadline=None)
@given(capacity=capacities, prefix=operations, pages=st.lists(page_ids, max_size=12))
def test_insert_many_is_idempotent(backend, capacity, prefix, pages):
    """Re-inserting the same batch leaves contents and order unchanged."""
    cache = CACHES[backend](capacity)
    model = ModelLRU(capacity)
    for op in prefix:
        apply(cache, model, op)
    cache.insert_many(pages)
    once = cache.cached_pages()
    cache.insert_many(pages)
    assert cache.cached_pages() == once


@pytest.mark.parametrize("backend", CACHES)
@settings(deadline=None)
@given(capacity=st.integers(min_value=1, max_value=8), pages=st.lists(page_ids, min_size=1))
def test_distinct_tail_survives_bulk_insert(backend, capacity, pages):
    """After insert_many, the cache holds the last distinct pages inserted."""
    cache = CACHES[backend](capacity)
    cache.insert_many(pages)
    expected: list[int] = []
    for page in reversed(pages):  # last occurrences, newest first
        if page not in expected:
            expected.append(page)
        if len(expected) == capacity:
            break
    assert cache.cached_pages() == list(reversed(expected))


# -- differential equivalence: dict backend vs array backend -----------------


def observable_state(cache) -> dict:
    """Everything the serving plane can see about a cache."""
    universe = list(range(16))
    return {
        "len": len(cache),
        "cached_pages": cache.cached_pages(),
        "counters": (cache.hits, cache.misses, cache.evictions, cache.insertions),
        "owners": [cache.owner_of(p) for p in universe],
        "owners_many": cache.owners_many(universe),
        "evicted_many": cache.evicted_many(universe),
        "contains_many": cache.contains_many(universe),
        "missing_many": cache.missing_many(universe),
    }


@settings(deadline=None)
@given(capacity=capacities, ops=tagged_operations)
def test_array_cache_is_observably_identical_to_dict_cache(capacity, ops):
    """Same random op sequence -> same observable state after every step.

    The array cache is the independent second implementation of the
    contract: the full op vocabulary (owner tags, batch ops) must leave
    both in the same observable state.
    """
    dict_cache = PrefetchCache(capacity)
    array_cache = ArrayCache(capacity)
    for kind, arg, owner in ops:
        if kind == "insert":
            dict_cache.insert(arg, owner)
            array_cache.insert(arg, owner)
        elif kind == "touch":
            assert dict_cache.touch(arg) == array_cache.touch(arg)
        elif kind == "insert_many":
            dict_cache.insert_many(arg, owner)
            array_cache.insert_many(arg, owner)
        else:
            assert dict_cache.touch_many(arg) == array_cache.touch_many(arg)
        assert observable_state(dict_cache) == observable_state(array_cache)


@pytest.mark.parametrize("backend", CACHES)
@settings(deadline=None)
@given(capacity=capacities, prefix=operations, probe=st.lists(page_ids, max_size=12))
def test_batch_ops_match_scalar_loops(backend, capacity, prefix, probe):
    """Each batch call equals the model's answer page by page, and
    ``touch_many`` the scalar ``touch`` loop."""
    cache = CACHES[backend](capacity)
    model = ModelLRU(capacity)
    for op in prefix:
        apply(cache, model, op)

    assert cache.contains_many(probe) == [p in model.pages for p in probe]
    assert cache.missing_many(probe) == [p for p in probe if p not in model.pages]
    assert cache.owners_many(probe) == [model.owner(p) for p in probe]
    assert cache.evicted_many(probe) == [p in model.evicted for p in probe]

    # touch_many mutates; compare against a fresh replica touched scalar-wise.
    replica = CACHES[backend](capacity)
    replica_model = ModelLRU(capacity)
    for op in prefix:
        apply(replica, replica_model, op)
    batch_mask = cache.touch_many(probe)
    scalar_mask = [replica.touch(p) for p in probe]
    assert batch_mask == scalar_mask
    assert cache.cached_pages() == replica.cached_pages()
    assert (cache.hits, cache.misses) == (replica.hits, replica.misses)


#: The forms a batch arrives in: the engine passes ndarrays and lists of
#: ints; a list of numpy scalars or a one-shot iterator must do as well.
BATCH_FORMS = {
    "list": list,
    "int64_elements": lambda pages: [np.int64(p) for p in pages],
    "ndarray": lambda pages: np.asarray(pages, dtype=np.int64),
    "generator": iter,
}


@pytest.mark.parametrize("form", BATCH_FORMS)
@settings(deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=6),
    warm=st.lists(st.tuples(page_ids, owners), max_size=20),
    probe=st.lists(page_ids, max_size=8),
)
def test_dict_batch_ops_equal_the_scalar_loop_on_any_iterable(form, capacity, warm, probe):
    """Every batch op of the dict cache is the scalar loop, whatever the
    batch is made of: duplicates, numpy scalars, a generator, nothing --
    on a cache that has already evicted."""
    as_batch = BATCH_FORMS[form]
    probe = probe + probe[:3]  # duplicates within the batch
    batch, scalar, model = PrefetchCache(capacity), PrefetchCache(capacity), ModelLRU(capacity)
    for cache in (batch, scalar, model):
        for page in range(capacity + 2):  # overflow: evictions happened
            cache.insert(page, 1)
        for page, owner in warm:
            cache.insert(page, owner)
    assert batch.evictions >= 2

    contains = batch.contains_many(as_batch(probe))
    assert all(type(flag) is bool for flag in contains)
    assert contains == [p in model.pages for p in probe]
    missing = batch.missing_many(as_batch(probe))
    assert missing == [p for p in probe if p not in model.pages]
    assert all(type(p) is int for p in missing)
    owned = batch.owners_many(as_batch(probe))
    assert all(type(owner) is int for owner in owned)
    assert owned == [model.owner(p) for p in probe]
    marks = batch.evicted_many(as_batch(probe))
    assert all(type(flag) is bool for flag in marks)
    assert marks == [p in model.evicted for p in probe]

    hit = batch.touch_many(as_batch(probe))
    assert all(type(flag) is bool for flag in hit)
    assert hit == [scalar.touch(p) for p in probe]
    assert (batch.hits, batch.misses) == (scalar.hits, scalar.misses)
    assert batch.cached_pages() == scalar.cached_pages()  # recency order

    batch.insert_many(as_batch(probe), 2)
    for page in probe:
        scalar.insert(page, 2)
    assert batch.cached_pages() == scalar.cached_pages()
    assert all(type(p) is int for p in batch.cached_pages())
    assert (batch.evictions, batch.insertions) == (scalar.evictions, scalar.insertions)
    universe = range(16)
    assert batch.evicted_many(universe) == scalar.evicted_many(universe)
    assert [batch.owner_of(p) for p in universe] == [scalar.owner_of(p) for p in universe]


def test_array_cache_rejects_negative_page_ids():
    cache = ArrayCache(4)
    with pytest.raises(ValueError, match="non-negative"):
        cache.insert(-1)
    with pytest.raises(ValueError, match="non-negative"):
        cache.insert_many([3, -2])
    # Read-side probes of negative ids are harmless (absent, not wrapped).
    assert cache.touch(-5) is False
    assert cache.contains_many([-1, -7]) == [False, False]
    assert cache.evicted_many([-1]) == [False]


# -- one batch contract: any iterable of ints in, a list out ------------------


def contract_cache(kind: str, index):
    """A fresh cache of each class the contract binds: the two backends and
    a rebalancing Hilbert-sharded cache (K = 3, checked after every batch)."""
    if kind == "sharded":
        spec = ShardSpec(
            n_shards=3, shard_cache_pages=2, rebalance=True, rebalance_interval=1
        )
        return make_sharded_cache(spec, 0, index=index)
    return CACHES[kind](6)


#: Every form a batch arrives in; ``probe`` may also be empty.
CONTRACT_FORMS = {
    "list": list,
    "int64_elements": lambda pages: [np.int64(p) for p in pages],
    "ndarray": lambda pages: np.asarray(pages, dtype=np.int64),
    "generator": lambda pages: (p for p in pages),
}

#: Batch op -> the type of each answer.
CONTRACT_OPS = {
    "contains_many": bool,
    "owners_many": int,
    "evicted_many": bool,
    # Last: it mutates recency and counters (and feeds the rebalancer).
    "touch_many": bool,
}


def one_by_one(cache, op: str, pages: list[int]) -> list:
    """``op`` asked one page at a time: the scalar ``touch`` for
    ``touch_many``, a batch of one for the read-only ops.

    A sharded batch routes once and feeds its rebalancer after the
    batch, while its scalar ``touch`` is a batch of one (a rebalance
    may run between two of them), so the loop a sharded ``touch_many``
    equals is its owning shards' scalar touches.
    """
    if op == "touch_many":
        if isinstance(cache, ShardedCache):
            return [cache.shards[cache.route(page)].touch(page) for page in pages]
        return [cache.touch(page) for page in pages]
    return [getattr(cache, op)([page])[0] for page in pages]

contract_warmup = st.lists(
    st.one_of(
        st.tuples(st.just("insert_many"), st.lists(page_ids, max_size=6), owners),
        st.tuples(st.just("touch_many"), st.lists(page_ids, max_size=6)),
    ),
    max_size=12,
)


@pytest.mark.parametrize("form", CONTRACT_FORMS)
@pytest.mark.parametrize("kind", ["dict", "array", "sharded"])
@settings(deadline=None)
@given(warm=contract_warmup, probe=st.lists(page_ids, max_size=8))
def test_every_batch_op_answers_a_list_of_plain_values(tissue_flat, kind, form, warm, probe):
    """Any input form in, a ``list`` of plain ``bool`` / ``int`` out, equal
    to the scalar loop -- on every cache class a session can be handed."""
    batch, scalar = contract_cache(kind, tissue_flat), contract_cache(kind, tissue_flat)
    for cache in (batch, scalar):  # same calls, same (deterministic) state
        for name, *operands in warm:
            getattr(cache, name)(*operands)
    as_batch = CONTRACT_FORMS[form]

    missing = batch.missing_many(as_batch(probe))
    assert type(missing) is list and all(type(page) is int for page in missing)
    assert missing == [page for page in probe if scalar.missing_many([page])]
    for name, answer_type in CONTRACT_OPS.items():
        got = getattr(batch, name)(as_batch(probe))
        assert type(got) is list and all(type(value) is answer_type for value in got), name
        assert got == one_by_one(scalar, name, probe), name
    assert (batch.hits, batch.misses) == (scalar.hits, scalar.misses)


# -- served-query attribution: one pass, the two lookups' counts ---------------


def attribution_cache(kind: str, index, *, rebalance: bool = True):
    """A small cache of each class a serving session attributes on: the
    dict cache, a Hilbert-sharded cache (rebalancing after every batch
    unless told not to) and a hash-sharded one.  Small enough to evict
    constantly."""
    if kind == "dict":
        return PrefetchCache(4)
    if kind == "hash":
        return ShardedCache(
            ShardSpec(n_shards=3, partition="hash"), [PrefetchCache(2) for _ in range(3)]
        )
    spec = ShardSpec(
        n_shards=3, shard_cache_pages=2, rebalance=rebalance, rebalance_interval=1
    )
    return make_sharded_cache(spec, 0, index=index)


def two_lookups(cache, pages: list[int], hit: list[bool], client_id: int) -> tuple[int, int]:
    """What the served step counted before ``attribute_many``: the hits'
    owner tags and the misses' eviction marks, asked separately."""
    hit_pages = [page for page, was_hit in zip(pages, hit) if was_hit]
    miss_pages = [page for page, was_hit in zip(pages, hit) if not was_hit]
    own = cache.owners_many(hit_pages).count(client_id)
    return len(hit_pages) - own, cache.evicted_many(miss_pages).count(True)


def cache_view(cache) -> tuple:
    """Counters and per-shard LRU listings: what attribution must not move."""
    shards = cache.shards if isinstance(cache, ShardedCache) else [cache]
    return (
        cache.hits,
        cache.misses,
        cache.evictions,
        cache.insertions,
        [shard.cached_pages() for shard in shards],
    )


#: Insert / touch histories with untagged (``None``) owners; the caches
#: above hold 2-4 pages per shard, so pages are evicted and re-inserted.
attribution_history = st.lists(
    st.one_of(
        st.tuples(st.just("insert_many"), st.lists(page_ids, max_size=6), owners),
        st.tuples(st.just("touch_many"), st.lists(page_ids, max_size=6)),
    ),
    max_size=30,
)


@pytest.mark.parametrize("kind", ["dict", "hilbert", "hash"])
@settings(deadline=None)
@given(
    history=attribution_history,
    probe=st.lists(page_ids, max_size=10),
    # Owners are 0-3, so clients 4 and 5 own nothing.
    client_id=st.integers(min_value=0, max_value=5),
)
def test_attribute_many_equals_the_owner_and_eviction_lookups(
    tissue_flat, kind, history, probe, client_id
):
    cache = attribution_cache(kind, tissue_flat)
    for name, *operands in history:
        getattr(cache, name)(*operands)
    hit = cache.touch_many(probe)
    expected = two_lookups(cache, probe, hit, client_id)
    before = cache_view(cache)
    assert cache.attribute_many(probe, hit, client_id) == expected
    assert cache.attribute_many(np.asarray(probe, dtype=np.int64), hit, client_id) == expected
    assert cache_view(cache) == before


@pytest.mark.parametrize("kind", ["dict", "hilbert", "hash"])
def test_attribute_many_counts_each_case(tissue_flat, kind):
    """One history with every case: own, another client's and untagged
    hits, a page evicted and brought back, evicted misses, misses never
    cached; an empty batch; a client that owns nothing.  (No rebalancing:
    a split move re-routes pages away from their eviction marks.)"""
    cache = attribution_cache(kind, tissue_flat, rebalance=False)
    cache.insert_many(range(12), owner=0)  # every shard overflows: evictions
    gone = [page for page, mark in zip(range(12), cache.evicted_many(range(12))) if mark]
    back, still_gone = gone[0], gone[1:]
    cache.insert_many([back], owner=2)  # re-inserted: its mark clears
    cache.insert_many([13], owner=None)
    own = [
        page
        for page, there in zip(range(12), cache.contains_many(range(12)))
        if there and page != back
    ]
    probe = [back, 13, *own, *still_gone, 14, 15]
    hit = cache.touch_many(probe)
    n_hits = hit.count(True)
    assert n_hits == 2 + len(own) and len(still_gone) > 0
    for client_id, foreign in [(0, n_hits - len(own)), (2, n_hits - 1), (5, n_hits)]:
        answer = (foreign, len(still_gone))
        assert cache.attribute_many(probe, hit, client_id) == answer
        assert two_lookups(cache, probe, hit, client_id) == answer
    assert cache.attribute_many([], [], 0) == (0, 0)


@pytest.mark.parametrize("kind", ["dict", "array", "sharded"])
def test_an_empty_batch_answer_is_a_fresh_list(tissue_flat, kind):
    """Mutating one empty-batch answer cannot leak into the next one."""
    cache = contract_cache(kind, tissue_flat)
    for name in ["missing_many", *CONTRACT_OPS]:
        for empty in ([], np.zeros(0, dtype=np.int64), iter(())):
            first = getattr(cache, name)(empty)
            assert type(first) is list and first == [], name
            first.append(1)
            assert getattr(cache, name)([]) == [], name


# -- partition invariant under serving ---------------------------------------


@settings(deadline=None, max_examples=10)
@given(
    n_clients=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(["independent", "hotspot"]),
    cache_pages=st.one_of(st.none(), st.integers(min_value=8, max_value=64)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lockstep_serving_partitions_cache_totals(
    tissue, tissue_flat, n_clients, mode, cache_pages, seed
):
    """Per-client hits+misses partition the shared cache's counters under
    the scheduler, whose report equals the round-robin oracle's (with
    staggered arrivals in test_serving.py)."""
    from repro.baselines import EWMAPrefetcher
    from repro.sim import ServingSimulator, SimulationConfig
    from repro.workload import multiclient_sessions
    from tests.oracles.serving import RoundRobinSimulator

    clients = multiclient_sessions(
        tissue, n_clients=n_clients, seed=seed, n_queries=3,
        volume=30_000.0, mode=mode,
    )
    config = SimulationConfig(cache_capacity_pages=cache_pages)
    report, reference = (
        simulator(tissue_flat, config).run(clients, [EWMAPrefetcher(lam=0.3) for _ in clients])
        for simulator in (ServingSimulator, RoundRobinSimulator)
    )
    assert report == reference
    assert sum(c.shared_hits for c in report.clients) == report.cache_hits
    assert sum(c.shared_misses for c in report.clients) == report.cache_misses
    for client in report.clients:
        records = client.metrics.records
        assert client.shared_hits == sum(r.pages_hit for r in records)
        assert client.shared_misses == sum(r.pages_needed - r.pages_hit for r in records)
        assert 0 <= client.cross_client_hits <= client.shared_hits
        assert 0 <= client.evicted_misses <= client.shared_misses
