"""Page-granular LRU prefetch cache.

The paper reserves 4 GB of RAM for prefetched data (§7.1) and clears the
cache between sequences.  Capacity here is expressed in pages; the
simulator scales it with the dataset so that the *ratio* of cache size to
query result size matches the paper's regime.  Section 7.4.4 notes that a
small cache halts prefetching prematurely exactly like a short prefetch
window -- the eviction-on-full behaviour below is what produces that
effect in the sensitivity benchmarks.

The serving layer (DESIGN.md §6) shares one cache between many client
sessions, so every cached page carries an optional *owner* tag (the
client that prefetched it) and the cache remembers which pages it has
evicted: together these let :class:`~repro.sim.serve.ServingSimulator`
attribute a hit to the client whose prefetch produced it (cross-client
hits) and a miss to contention (eviction-induced misses).  Single-client
callers ignore both facilities; they change no eviction or counting
behaviour.

Two implementations share one observable contract, and one is built:

* :class:`PrefetchCache` -- the ``OrderedDict`` cache every driver
  builds (engine, both serving schedulers, the shards of a sharded
  cache, the daemon): one dict operation per page;
* :class:`ArrayCache` -- a slot-array cache (page-id -> slot lookup
  table, epoch-counter LRU) with numpy batch operations.  It measured
  slower than the dict at every batch size this repo serves (DESIGN.md
  §6.1), so nothing in ``src`` constructs it; it stays as the
  independent second implementation the differential suites
  (``tests/test_cache_properties.py``, ``tests/test_sharded_cache.py``)
  compare the dict cache with, defined here because the benchmark
  harness names it.

Both answer one contract (DESIGN.md §6.1).  Callers ask the batch API
(:meth:`touch_many`, :meth:`contains_many`, :meth:`missing_many`,
:meth:`insert_many`): any iterable of ints in, a ``list`` of plain
``bool`` / ``int`` out, equal element-wise to the scalar ``touch`` /
``insert`` loop.  A served query's attribution is one more batch call,
:meth:`PrefetchCache.attribute_many` (the demand touch's hit flags in,
``(foreign_hits, evicted_misses)`` out), which only the built caches
answer.  :meth:`owners_many` and :meth:`evicted_many` ask the same two
questions page by page; nothing in the package calls them, and they
stay defined because the benchmark harness names them.  Besides the
counters, the only other ops are the ones the sharded cache's
rebalancer moves pages with: ``len``, :meth:`cached_pages`,
:meth:`owner_of` and :meth:`discard`.  There is no scalar membership or
eviction query: one page is a batch of one.  The property suite runs
random operation sequences against both and requires identical
observable state after every step.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable
from itertools import compress

import numpy as np

__all__ = ["ArrayCache", "PrefetchCache"]

#: Owner sentinel used by the vectorized owner lookups: untagged pages
#: (single-client use) report ``-1``, which never equals a client id.
NO_OWNER = -1

#: Sentinel distinguishing "absent" from a cached ``None`` owner tag.
_MISSING = object()


def _keys(page_ids: Iterable[int]) -> list:
    """A batch to look up, never to store: an array's ``tolist``, a list as
    is, anything else listed.  A numpy integer hashes and compares equal
    to its ``int``, so it finds the same key; only ids an answer hands
    back need ``int``."""
    if isinstance(page_ids, np.ndarray):
        return page_ids.tolist()
    return page_ids if type(page_ids) is list else list(page_ids)


class PrefetchCache:
    """A bounded set of cached page ids with least-recently-used eviction."""

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity_pages = int(capacity_pages)
        # page id -> owner tag of the client that first inserted it
        # (None for untagged single-client use).
        self._pages: OrderedDict[int, int | None] = OrderedDict()
        self._evicted: set[int] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    def cached_pages(self) -> list[int]:
        """Page ids currently cached, least-recently-used first."""
        return list(self._pages.keys())

    def owner_of(self, page_id: int) -> int | None:
        """Owner tag of a cached page (``None`` if untagged or absent).

        Ownership is first-inserter-wins: a re-insert refreshes recency
        but keeps the original tag, so a cross-client hit credits the
        client whose prefetch actually brought the page in.
        """
        return self._pages.get(int(page_id))

    # -- operations ----------------------------------------------------------

    def touch(self, page_id: int) -> bool:
        """Record an access; returns ``True`` on a hit.

        Hits refresh recency.  Misses only count -- the caller decides
        whether to :meth:`insert` the page after reading it from disk.
        """
        page_id = int(page_id)
        if page_id in self._pages:
            self._pages.move_to_end(page_id)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, page_id: int, owner: int | None = None) -> None:
        """Add a page, evicting the least recently used page when full.

        ``owner`` tags the page with the inserting client for shared-cache
        accounting; re-inserts keep the original tag (and recency moves
        to the end, as before).
        """
        self.insert_many((page_id,), owner)

    def insert_many(self, page_ids: Iterable[int], owner: int | None = None) -> None:
        """:meth:`insert` every page in order, in one loop."""
        if self.capacity_pages == 0:
            return
        cached, evicted, capacity = self._pages, self._evicted, self.capacity_pages
        n_evicted = n_inserted = 0
        for page_id in page_ids:
            page_id = int(page_id)
            if page_id in cached:
                cached.move_to_end(page_id)
                continue
            while len(cached) >= capacity:
                evicted.add(cached.popitem(last=False)[0])
                n_evicted += 1
            cached[page_id] = owner
            evicted.discard(page_id)
            n_inserted += 1
        self.evictions += n_evicted
        self.insertions += n_inserted

    def discard(self, page_id: int) -> bool:
        """Remove a page without eviction accounting; ``True`` if removed.

        Unlike an eviction this neither bumps the eviction counter nor
        sets the eviction-memory mark: the page is leaving on purpose,
        not under pressure.  The sharded cache's rebalancer uses this to
        migrate pages between shards.
        """
        return self._pages.pop(int(page_id), _MISSING) is not _MISSING

    # -- batch operations -----------------------------------------------------
    #
    # Each batch call takes any iterable of ints and answers a list,
    # element-wise identical to the scalar loop.  The batches this repo
    # serves are 3-25 pages, where a comprehension over plain ints beats
    # per-call numpy dispatch on the way in and on the way out
    # (DESIGN.md §6.1).  The input is only looked up, never kept.

    def touch_many(self, page_ids: Iterable[int]) -> list[bool]:
        """Touch every page in order; the hit flags (counts as touches)."""
        pages = _keys(page_ids)
        cached = self._pages
        # touch never inserts, so membership holds across the batch.
        hit = [p in cached for p in pages]
        move_to_end = cached.move_to_end
        for page_id in compress(pages, hit):
            move_to_end(page_id)
        n_hits = hit.count(True)
        self.hits += n_hits
        self.misses += len(hit) - n_hits
        return hit

    def contains_many(self, page_ids: Iterable[int]) -> list[bool]:
        """Membership flags; no counters, no recency changes."""
        cached = self._pages
        return [p in cached for p in _keys(page_ids)]

    def missing_many(self, page_ids: Iterable[int]) -> list[int]:
        """The pages *not* cached, in input order (no counters)."""
        cached = self._pages
        return [int(p) for p in _keys(page_ids) if p not in cached]

    def owners_many(self, page_ids: Iterable[int]) -> list[int]:
        """Owner tags (``NO_OWNER`` for untagged or absent pages)."""
        owner_of = self._pages.get
        return [NO_OWNER if (owner := owner_of(p)) is None else owner for p in _keys(page_ids)]

    def evicted_many(self, page_ids: Iterable[int]) -> list[bool]:
        """Whether each page was cached at some point and then evicted.

        A miss on such a page is *eviction-induced*: the data had been
        prefetched but was pushed out (by cache pressure, e.g. from
        other clients sharing the cache) before it was used.  Re-inserting
        the page clears the mark.  No counters, no recency changes.
        """
        evicted = self._evicted
        return [p in evicted for p in _keys(page_ids)]

    def attribute_many(
        self, page_ids: Iterable[int], hit: Iterable[bool], client_id: int
    ) -> tuple[int, int]:
        """``(foreign_hits, evicted_misses)`` of one served batch, in one pass.

        ``hit`` is the batch's :meth:`touch_many` answer.  A hit is
        foreign when its page is not tagged ``client_id`` (untagged pages
        included: a client id is never :data:`NO_OWNER`); a miss is
        eviction-induced when its page carries the eviction mark.  Equal
        to ``hit.count(True) - owners_many(hit pages).count(client_id)``
        and ``evicted_many(miss pages).count(True)``; no counters, no
        recency changes.
        """
        owner_of, evicted = self._pages.get, self._evicted
        foreign = evicted_misses = 0
        for page_id, was_hit in zip(_keys(page_ids), hit):
            if not was_hit:
                if page_id in evicted:
                    evicted_misses += 1
            elif owner_of(page_id) != client_id:
                foreign += 1
        return foreign, evicted_misses


class ArrayCache:
    """Array-backed LRU cache, observably identical to :class:`PrefetchCache`.

    Layout: cached pages live in slots ``0..len-1`` of three parallel
    arrays (page id, owner tag, recency epoch); a dense page-id -> slot
    table answers membership in O(1) and vectorizes over page batches.
    Recency is an epoch counter bumped once per recency event (touch hit
    or insert); the LRU victim is the occupied slot with the smallest
    epoch, and ``cached_pages()`` is the occupied slots sorted by epoch
    -- exactly the ``OrderedDict`` order of the dict cache.

    Batch inserts take a vectorized fast path whenever the batch cannot
    evict (the common case: mostly-cached batches, or a cache that is
    not yet full); batches that must evict fall back to the exact scalar
    loop, because mid-batch evictions can re-evict pages of the batch
    itself and only the sequential order reproduces that.

    Page ids must be non-negative (they index the slot table); owner
    tags must be non-negative client ids or ``None``.
    """

    def __init__(self, capacity_pages: int) -> None:
        if capacity_pages < 0:
            raise ValueError("cache capacity must be non-negative")
        self.capacity_pages = int(capacity_pages)
        self._slot_page = np.full(self.capacity_pages, -1, dtype=np.int64)
        self._slot_owner = np.full(self.capacity_pages, NO_OWNER, dtype=np.int64)
        self._slot_epoch = np.zeros(self.capacity_pages, dtype=np.int64)
        self._n = 0
        self._clock = 0
        # page id -> slot (-1 when absent) and the eviction-memory mark,
        # grown together on demand to cover the largest page id seen.
        self._slot_of = np.full(0, -1, dtype=np.int64)
        self._evicted_mark = np.zeros(0, dtype=bool)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0

    # -- internals ------------------------------------------------------------

    @staticmethod
    def _as_array(page_ids: Iterable[int]) -> np.ndarray:
        """A batch as a flat ``int64`` array; a one-shot iterable is read once."""
        if not isinstance(page_ids, np.ndarray):
            page_ids = _keys(page_ids)
        return np.asarray(page_ids, dtype=np.int64).ravel()

    def _ensure_table(self, max_page: int) -> None:
        need = max_page + 1
        if need <= self._slot_of.size:
            return
        size = max(need, 2 * self._slot_of.size, 1024)
        slot_of = np.full(size, -1, dtype=np.int64)
        slot_of[: self._slot_of.size] = self._slot_of
        evicted = np.zeros(size, dtype=bool)
        evicted[: self._evicted_mark.size] = self._evicted_mark
        self._slot_of = slot_of
        self._evicted_mark = evicted

    def _lookup(self, pages: np.ndarray) -> np.ndarray:
        """Slot of each page (-1 when absent); out-of-table ids are absent."""
        table = self._slot_of
        if table.size == 0 or pages.size == 0:
            return np.full(pages.shape, -1, dtype=np.int64)
        # Fast path: after warmup the table covers every page id seen,
        # so the range check almost always passes in one min/max scan.
        if int(pages.min()) >= 0 and int(pages.max()) < table.size:
            return table[pages]
        valid = (pages >= 0) & (pages < table.size)
        return np.where(valid, table[np.where(valid, pages, 0)], -1)

    def _slot_scalar(self, page_id: int) -> int:
        if 0 <= page_id < self._slot_of.size:
            return int(self._slot_of[page_id])
        return -1

    def _insert_scalar(self, page_id: int, owner: int | None) -> None:
        if page_id < 0:
            raise ValueError("ArrayCache page ids must be non-negative")
        slot = self._slot_scalar(page_id)
        if slot >= 0:
            self._clock += 1
            self._slot_epoch[slot] = self._clock
            return
        while self._n >= self.capacity_pages:
            victim = int(np.argmin(self._slot_epoch[: self._n]))
            victim_page = int(self._slot_page[victim])
            self._slot_of[victim_page] = -1
            self._evicted_mark[victim_page] = True
            self.evictions += 1
            if victim != self._n - 1:
                # Keep occupancy dense: move the last slot into the hole.
                last = self._n - 1
                self._slot_page[victim] = self._slot_page[last]
                self._slot_owner[victim] = self._slot_owner[last]
                self._slot_epoch[victim] = self._slot_epoch[last]
                self._slot_of[self._slot_page[victim]] = victim
            self._n -= 1
        slot = self._n
        self._clock += 1
        self._slot_page[slot] = page_id
        self._slot_owner[slot] = NO_OWNER if owner is None else int(owner)
        self._slot_epoch[slot] = self._clock
        self._ensure_table(page_id)
        self._slot_of[page_id] = slot
        self._evicted_mark[page_id] = False
        self._n += 1
        self.insertions += 1

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return self._n

    def cached_pages(self) -> list[int]:
        """Page ids currently cached, least-recently-used first."""
        order = np.argsort(self._slot_epoch[: self._n])
        return [int(p) for p in self._slot_page[: self._n][order]]

    def owner_of(self, page_id: int) -> int | None:
        slot = self._slot_scalar(int(page_id))
        if slot < 0:
            return None
        owner = int(self._slot_owner[slot])
        return None if owner == NO_OWNER else owner

    # -- operations ----------------------------------------------------------

    def touch(self, page_id: int) -> bool:
        slot = self._slot_scalar(int(page_id))
        if slot >= 0:
            self._clock += 1
            self._slot_epoch[slot] = self._clock
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, page_id: int, owner: int | None = None) -> None:
        if self.capacity_pages == 0:
            return
        self._insert_scalar(int(page_id), owner)

    def insert_many(self, page_ids, owner: int | None = None) -> None:
        if self.capacity_pages == 0:
            return
        pages = self._as_array(page_ids)
        if pages.size == 0:
            return
        if int(pages.min()) < 0:
            raise ValueError("ArrayCache page ids must be non-negative")
        slots = self._lookup(pages)
        new = pages[slots < 0]
        n_new = int(np.unique(new).size) if new.size else 0
        if self._n + n_new > self.capacity_pages:
            # The batch evicts; mid-batch evictions may hit pages of the
            # batch itself, so only the sequential order is exact.
            for page in pages.tolist():
                self._insert_scalar(page, owner)
            return
        # Vectorized fast path: no evictions possible.  Each batch
        # element is one recency event; a page's final epoch is that of
        # its last occurrence, exactly as sequential insertion leaves it.
        reversed_unique, reversed_index = np.unique(pages[::-1], return_index=True)
        last_position = pages.size - 1 - reversed_index
        self._ensure_table(int(pages.max()))
        unique_slots = self._lookup(reversed_unique)
        cached = unique_slots >= 0
        self._slot_epoch[unique_slots[cached]] = self._clock + 1 + last_position[cached]
        new_pages = reversed_unique[~cached]
        if new_pages.size:
            allotted = np.arange(self._n, self._n + new_pages.size)
            self._slot_page[allotted] = new_pages
            self._slot_owner[allotted] = NO_OWNER if owner is None else int(owner)
            self._slot_epoch[allotted] = self._clock + 1 + last_position[~cached]
            self._slot_of[new_pages] = allotted
            self._evicted_mark[new_pages] = False
            self._n += new_pages.size
            self.insertions += int(new_pages.size)
        self._clock += pages.size

    def discard(self, page_id: int) -> bool:
        """Remove a page without eviction accounting; ``True`` if removed.

        See :meth:`PrefetchCache.discard`: no eviction counter, no
        eviction-memory mark.  The hole left by the removed slot is
        filled by the last occupied slot, as on eviction.
        """
        page_id = int(page_id)
        slot = self._slot_scalar(page_id)
        if slot < 0:
            return False
        self._slot_of[page_id] = -1
        last = self._n - 1
        if slot != last:
            self._slot_page[slot] = self._slot_page[last]
            self._slot_owner[slot] = self._slot_owner[last]
            self._slot_epoch[slot] = self._slot_epoch[last]
            self._slot_of[self._slot_page[slot]] = slot
        self._n -= 1
        return True

    # -- batch operations (vectorized) ---------------------------------------
    #
    # Vectorized inside, the shared contract at the boundary: each answer
    # leaves as a list of plain ``bool`` / ``int`` (``tolist``).

    def touch_many(self, page_ids) -> list[bool]:
        """Touch every page in order; the hit flags (counts as touches)."""
        pages = self._as_array(page_ids)
        if pages.size == 0:
            return []
        slots = self._lookup(pages)
        hit = slots >= 0
        n_hits = int(np.count_nonzero(hit))
        if n_hits:
            # Epochs in occurrence order; duplicates keep the largest
            # (= last occurrence), as sequential touches would.
            epochs = np.arange(self._clock + 1, self._clock + 1 + n_hits)
            np.maximum.at(self._slot_epoch, slots[hit], epochs)
            self._clock += n_hits
        self.hits += n_hits
        self.misses += pages.size - n_hits
        return hit.tolist()

    def contains_many(self, page_ids) -> list[bool]:
        return (self._lookup(self._as_array(page_ids)) >= 0).tolist()

    def missing_many(self, page_ids) -> list[int]:
        pages = self._as_array(page_ids)
        if pages.size == 0:
            return []
        return [int(p) for p in pages[self._lookup(pages) < 0]]

    def owners_many(self, page_ids) -> list[int]:
        pages = self._as_array(page_ids)
        slots = self._lookup(pages)
        owners = np.full(pages.shape, NO_OWNER, dtype=np.int64)
        present = slots >= 0
        owners[present] = self._slot_owner[slots[present]]
        return owners.tolist()

    def evicted_many(self, page_ids) -> list[bool]:
        pages = self._as_array(page_ids)
        marks = self._evicted_mark
        if marks.size == 0 or pages.size == 0:
            return [False] * pages.size
        if int(pages.min()) >= 0 and int(pages.max()) < marks.size:
            return marks[pages].tolist()
        valid = (pages >= 0) & (pages < marks.size)
        return np.where(valid, marks[np.where(valid, pages, 0)], False).tolist()
