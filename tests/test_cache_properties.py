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
observable state after every single step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.cache import NO_OWNER, ArrayCache, PrefetchCache

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
        st.tuples(st.just("clear"), st.none(), st.none()),
    ),
    max_size=40,
)


class ModelLRU:
    """Independent list-based reference model of LRU semantics."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.pages: list[int] = []  # least-recently-used first

    def touch(self, page: int) -> bool:
        if page in self.pages:
            self.pages.remove(page)
            self.pages.append(page)
            return True
        return False

    def insert(self, page: int) -> None:
        if self.capacity == 0:
            return
        if page in self.pages:
            self.pages.remove(page)
            self.pages.append(page)
            return
        while len(self.pages) >= self.capacity:
            self.pages.pop(0)
        self.pages.append(page)


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
        "is_full": cache.is_full,
        "cached_pages": cache.cached_pages(),
        "counters": (cache.hits, cache.misses, cache.evictions, cache.insertions),
        "hit_rate": cache.hit_rate,
        "owners": [cache.owner_of(p) for p in universe],
        "evicted": [cache.was_evicted(p) for p in universe],
        "contains": [p in cache for p in universe],
        "owners_many": cache.owners_many(universe).tolist(),
        "evicted_many": cache.evicted_many(universe).tolist(),
        "contains_many": cache.contains_many(universe).tolist(),
        "missing_many": cache.missing_many(universe),
    }


@settings(deadline=None)
@given(capacity=capacities, ops=tagged_operations)
def test_array_cache_is_observably_identical_to_dict_cache(capacity, ops):
    """Same random op sequence -> same observable state after every step.

    The array cache is the independent second implementation of the
    contract: the full op vocabulary (owner tags, batch ops, clear)
    must leave both in the same observable state.
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
        elif kind == "touch_many":
            assert (
                dict_cache.touch_many(arg).tolist()
                == array_cache.touch_many(arg).tolist()
            )
        else:
            dict_cache.clear()
            array_cache.clear()
        assert observable_state(dict_cache) == observable_state(array_cache)


@pytest.mark.parametrize("backend", CACHES)
@settings(deadline=None)
@given(capacity=capacities, prefix=operations, probe=st.lists(page_ids, max_size=12))
def test_batch_ops_match_scalar_loops(backend, capacity, prefix, probe):
    """Each batch call equals the scalar loop it replaces, element-wise."""
    cache = CACHES[backend](capacity)
    model = ModelLRU(capacity)
    for op in prefix:
        apply(cache, model, op)

    assert cache.contains_many(probe).tolist() == [p in cache for p in probe]
    assert cache.missing_many(probe) == [p for p in probe if p not in cache]
    assert cache.owners_many(probe).tolist() == [
        -1 if cache.owner_of(p) is None else cache.owner_of(p) for p in probe
    ]
    assert cache.evicted_many(probe).tolist() == [cache.was_evicted(p) for p in probe]

    # touch_many mutates; compare against a fresh replica touched scalar-wise.
    replica = CACHES[backend](capacity)
    replica_model = ModelLRU(capacity)
    for op in prefix:
        apply(replica, replica_model, op)
    batch_mask = cache.touch_many(probe).tolist()
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
    batch, scalar = PrefetchCache(capacity), PrefetchCache(capacity)
    for cache in (batch, scalar):
        for page in range(capacity + 2):  # overflow: evictions happened
            cache.insert(page, 1)
        for page, owner in warm:
            cache.insert(page, owner)
    assert batch.evictions >= 2

    contains = batch.contains_many(as_batch(probe))
    assert contains.dtype == bool
    assert contains.tolist() == [p in scalar for p in probe]
    missing = batch.missing_many(as_batch(probe))
    assert missing == [p for p in probe if p not in scalar]
    assert all(type(p) is int for p in missing)
    owned = batch.owners_many(as_batch(probe))
    assert owned.dtype == np.int64
    assert owned.tolist() == [
        NO_OWNER if scalar.owner_of(p) is None else scalar.owner_of(p) for p in probe
    ]
    marks = batch.evicted_many(as_batch(probe))
    assert marks.dtype == bool
    assert marks.tolist() == [scalar.was_evicted(p) for p in probe]

    hit = batch.touch_many(as_batch(probe))
    assert hit.dtype == bool
    assert hit.tolist() == [scalar.touch(p) for p in probe]
    assert (batch.hits, batch.misses) == (scalar.hits, scalar.misses)
    assert batch.cached_pages() == scalar.cached_pages()  # recency order

    batch.insert_many(as_batch(probe), 2)
    for page in probe:
        scalar.insert(page, 2)
    assert batch.cached_pages() == scalar.cached_pages()
    assert all(type(p) is int for p in batch.cached_pages())
    assert (batch.evictions, batch.insertions) == (scalar.evictions, scalar.insertions)
    universe = range(16)
    assert [batch.was_evicted(p) for p in universe] == [scalar.was_evicted(p) for p in universe]
    assert [batch.owner_of(p) for p in universe] == [scalar.owner_of(p) for p in universe]


def test_array_cache_rejects_negative_page_ids():
    cache = ArrayCache(4)
    with pytest.raises(ValueError, match="non-negative"):
        cache.insert(-1)
    with pytest.raises(ValueError, match="non-negative"):
        cache.insert_many([3, -2])
    # Read-side probes of negative ids are harmless (absent, not wrapped).
    assert -1 not in cache
    assert cache.touch(-5) is False
    assert cache.contains_many([-1, -7]).tolist() == [False, False]
    assert cache.evicted_many([-1]).tolist() == [False]


# -- partition invariant under lockstep serving ------------------------------


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
    the lockstep scheduler (the round-robin counterpart lives in
    test_serving.py)."""
    from repro.baselines import EWMAPrefetcher
    from repro.sim import ServingSimulator, SimulationConfig
    from repro.workload import multiclient_sessions

    clients = multiclient_sessions(
        tissue, n_clients=n_clients, seed=seed, n_queries=3,
        volume=30_000.0, mode=mode,
    )
    config = SimulationConfig(cache_capacity_pages=cache_pages)
    report = ServingSimulator(tissue_flat, config).run(
        clients,
        [EWMAPrefetcher(lam=0.3) for _ in clients],
        lockstep=True,
    )
    assert sum(c.shared_hits for c in report.clients) == report.cache_hits
    assert sum(c.shared_misses for c in report.clients) == report.cache_misses
    for client in report.clients:
        records = client.metrics.records
        assert client.shared_hits == sum(r.pages_hit for r in records)
        assert client.shared_misses == sum(r.pages_missed for r in records)
        assert 0 <= client.cross_client_hits <= client.shared_hits
        assert 0 <= client.evicted_misses <= client.shared_misses
