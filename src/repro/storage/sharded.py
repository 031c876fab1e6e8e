"""Sharded data plane: Hilbert-partitioned cache shards with rebalancing.

The serving stack so far funnels every client through ONE shared cache
-- a single simulated node.  The paper's workloads are spatially
clustered, and the repo already computes a Hilbert order
(:mod:`repro.geometry.hilbert`) that turns spatial locality into key
locality; this module partitions the page space along that order into
``K`` cache shards, each an ordinary
:class:`~repro.storage.cache.PrefetchCache`, behind the *same* observable
cache contract, so every consumer -- ``QuerySession``,
``ServingSimulator`` (both schedulers), the serving daemon -- takes a
:class:`ShardedCache` unchanged.

Partitioning is compiled once by :func:`make_sharded_cache` from a
picklable :class:`ShardSpec`:

* ``hilbert`` -- range partitioning over per-page Hilbert keys derived
  from the page table (each page's object-centroid mean, quantized to a
  ``2**hilbert_bits`` grid over the dataset bounds, Skilling-encoded).
  ``K - 1`` split keys cut the sorted key sequence into equal page
  counts and compile into a page -> owning shard table (rebuilt after
  each split move); routing a batch is ONE gather from it
  (:meth:`ShardedCache.route_many`), so the lockstep scheduler keeps
  its single-pass shape.
* ``hash`` -- :func:`repro.util.slice_of` over raw page ids, the same
  documented "key -> slice i of n" rule the sharded result store uses.

Every lookup/insert routes to its owning shard and lands in that
shard's own counters, so the per-shard counters *exactly partition* the
request stream: ``requests == sum(shard.hits + shard.misses)`` holds by
construction and is hypothesis-checked in the test-suite.  Batch ops
are list-native like the shards' own (DESIGN.md §10): one ``tolist``,
one routing pass, answers written back by input position.

**Hot-shard rebalancing** (``rebalance=True``, range partitioning
only): the detector keeps an EWMA of per-shard demand load, fed once
per :meth:`~ShardedCache.touch_many` batch of a rebalancing cache.  When one
shard's EWMA exceeds ``rebalance_threshold`` times the mean, the
rebalancer deterministically moves the split point: the hot shard's
owned key range is cut at the median of its owned page keys and the
released half is donated to the colder adjacent shard; cached pages
whose owner changed migrate (``discard`` + re-insert, preserving LRU
order and owner tags -- no eviction accounting, the pages are moving,
not dying).  ``rebalance_events`` and ``pages_moved`` are reported.
Both the EWMA and the split moves are pure functions of the touch
sequence, so round-robin and lockstep serving -- which issue identical
batch sequences -- rebalance identically.

**Hop latency** (``hop_latency_s > 0``): a batch that fans out to ``S``
distinct shards charges ``(S - 1) * hop_latency_s`` of *simulated* time
into :attr:`ShardedCache.hop_seconds` -- the coordinator pays one hop
per extra shard contacted on the demand path.  ``QuerySession``
attributes the delta per client, exactly like tier stalls.

``SimulationConfig.build_cache`` builds a :class:`ShardedCache` only
for ``K > 1``; one shard *is* the plain cache.  Constructed directly
with ``K = 1`` the class needs no special case: every page routes to
shard 0 and every batch takes the single-shard delegation path, so it
stays op-by-op identical to the unsharded cache.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, fields
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.geometry.hilbert import hilbert_encode
from repro.storage.cache import PrefetchCache, _as_ints
from repro.util import slice_of

__all__ = [
    "PARTITIONS",
    "ShardSpec",
    "ShardedCache",
    "make_sharded_cache",
    "page_hilbert_keys",
]

#: Registered partitioning schemes.
PARTITIONS = ("hilbert", "hash")

#: Answers to an empty batch (zero-size, so sharing them is safe); their
#: dtypes are the dtypes of the per-page answers.
_NO_FLAGS = np.zeros(0, dtype=bool)
_NO_OWNERS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class ShardSpec:
    """Picklable spec of the sharded cache layout.

    Frozen and hashable so it can ride inside frozen simulation configs
    and cell specs, like :class:`~repro.storage.tiered.StorageSpec`.
    A config holding ``ShardSpec(n_shards=1)`` builds the plain cache.
    """

    #: Number of cache shards (simulated nodes); 1 = no sharding.
    n_shards: int = 1
    #: Partitioning scheme: one of :data:`PARTITIONS`.
    partition: str = "hilbert"
    #: Cache pages *per shard*; ``None`` splits the caller's total
    #: capacity as evenly as possible (first shards take the remainder).
    shard_cache_pages: int | None = None
    #: Simulated seconds charged per extra shard a demand batch fans
    #: out to (0 disables hop accounting).
    hop_latency_s: float = 0.0
    #: Enable the hot-shard detector + split-point rebalancer
    #: (range/``hilbert`` partitioning only).
    rebalance: bool = False
    #: EWMA smoothing factor for per-shard demand load.
    rebalance_lambda: float = 0.25
    #: A shard is hot when its EWMA exceeds ``threshold * mean``.
    rebalance_threshold: float = 2.0
    #: Demand batches between hot-shard checks.
    rebalance_interval: int = 32
    #: Hilbert grid resolution: page centroids quantize to a
    #: ``2**hilbert_bits`` grid per axis before encoding.
    hilbert_bits: int = 6

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.partition not in PARTITIONS:
            raise ValueError(
                f"unknown partition {self.partition!r}; known: {list(PARTITIONS)}"
            )
        if self.shard_cache_pages is not None and self.shard_cache_pages < 0:
            raise ValueError(
                f"shard_cache_pages must be >= 0, got {self.shard_cache_pages}"
            )
        if self.hop_latency_s < 0:
            raise ValueError(f"hop_latency_s must be >= 0, got {self.hop_latency_s}")
        if self.rebalance and self.partition != "hilbert":
            raise ValueError("rebalance requires range (hilbert) partitioning")
        if not 0.0 < self.rebalance_lambda <= 1.0:
            raise ValueError(
                f"rebalance_lambda must be in (0, 1], got {self.rebalance_lambda}"
            )
        if self.rebalance_threshold <= 1.0:
            raise ValueError(
                f"rebalance_threshold must be > 1, got {self.rebalance_threshold}"
            )
        if self.rebalance_interval < 1:
            raise ValueError(
                f"rebalance_interval must be >= 1, got {self.rebalance_interval}"
            )
        if not 1 <= self.hilbert_bits <= 16:
            raise ValueError(f"hilbert_bits must be in [1, 16], got {self.hilbert_bits}")

    @property
    def sharding_active(self) -> bool:
        """Whether routing can differ from a single shared cache."""
        return self.n_shards > 1

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ShardSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown shard spec key(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**dict(data))


def page_hilbert_keys(index, bits: int) -> np.ndarray:
    """Hilbert key of every page in ``index``'s page table.

    A page's key is the Hilbert encoding of its object-centroid mean,
    quantized to a ``2**bits`` grid over the (slightly inflated)
    dataset bounds -- the same quantization the Hilbert-Prefetch
    baseline uses for query centers, so page order and query order live
    on the same curve.  Empty pages key to the bounds center.
    """
    dataset = index.dataset
    table = index.page_table
    bounds = dataset.bounds.inflate(1e-6)
    lo = np.asarray(bounds.lo, dtype=np.float64)
    extent = np.asarray(bounds.hi, dtype=np.float64) - lo
    extent = np.where(extent > 0, extent, 1.0)
    cells = 1 << bits
    centroids = dataset.centroids
    dims = dataset.dims
    keys = np.empty(table.n_pages, dtype=np.int64)
    for page in range(table.n_pages):
        objects = table.objects_of_page(page)
        if len(objects):
            center = centroids[objects].mean(axis=0)
        else:
            center = lo + extent / 2.0
        frac = np.clip((center - lo) / extent, 0.0, 1.0)
        coord = np.minimum((frac * cells).astype(np.int64), cells - 1)
        keys[page] = hilbert_encode([int(c) for c in coord[:dims]], bits)
    return keys


#: index -> {bits: keys}.  Page tables are immutable once built, so the
#: derivation is a pure function of (index, bits); memoizing it keeps
#: repeated ``make_sharded_cache`` calls (one per timed serving run, one
#: per sweep cell) off the per-page encoding loop.
_PAGE_KEY_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _cached_page_keys(index, bits: int) -> np.ndarray:
    try:
        per_index = _PAGE_KEY_CACHE.setdefault(index, {})
    except TypeError:  # index type refuses weak references
        return page_hilbert_keys(index, bits)
    keys = per_index.get(bits)
    if keys is None:
        keys = page_hilbert_keys(index, bits)
        keys.flags.writeable = False  # shared across caches; splits copy it
        per_index[bits] = keys
    return keys


def _split_keys(page_keys: np.ndarray, n_shards: int) -> np.ndarray:
    """``n_shards - 1`` split keys cutting the sorted key sequence into
    (as close as possible) equal page counts.  Shard of a key is
    ``searchsorted(splits, key, side="right")``: split ``i`` is the
    lowest key owned by shard ``i + 1``.
    """
    ordered = np.sort(np.asarray(page_keys, dtype=np.int64))
    n = ordered.size
    positions = [min(round(i * n / n_shards), n - 1) for i in range(1, n_shards)]
    return ordered[positions].copy()


class ShardedCache:
    """K cache shards behind the single-cache observable contract.

    Top-level counters (``hits``/``misses``/``evictions``/
    ``insertions``, ``capacity_pages``, ``len``) are sums over the
    shards, so they exactly partition the request stream.  Batch
    operations route once (:meth:`route_many`), fan out per shard in
    input order, and reassemble results into input order.

    ``cached_pages()`` concatenates per-shard LRU-first listings in
    shard order; a *global* recency order across shards does not exist
    (each node ages independently), and with ``K = 1`` the listing is
    exactly the unsharded one.
    """

    def __init__(
        self,
        spec: ShardSpec,
        shards: Iterable[PrefetchCache],
        page_keys: np.ndarray | None = None,
        splits: np.ndarray | None = None,
    ) -> None:
        self.spec = spec
        self._shards = list(shards)
        if len(self._shards) != spec.n_shards:
            raise ValueError(
                f"spec names {spec.n_shards} shards, got {len(self._shards)}"
            )
        self._k = spec.n_shards
        if spec.partition == "hilbert" and self._k > 1:
            if page_keys is None:
                raise ValueError("hilbert partitioning needs per-page keys")
            self._page_keys = np.asarray(page_keys, dtype=np.int64)
            self._splits = (
                np.asarray(splits, dtype=np.int64)
                if splits is not None
                else _split_keys(self._page_keys, self._k)
            )
            if self._splits.size != self._k - 1:
                raise ValueError(
                    f"need {self._k - 1} split keys, got {self._splits.size}"
                )
            self._assign_owners()
        else:
            self._page_keys = None
            self._splits = None
        # Routing / rebalancing state and counters.
        self.hops = 0
        self.hop_seconds = 0.0
        self.rebalance_events = 0
        self.pages_moved = 0
        self._ewma = np.zeros(self._k, dtype=np.float64)
        self._batches = 0

    # -- routing --------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return self._k

    @property
    def shards(self) -> list[PrefetchCache]:
        """The inner per-shard caches (read-only use intended)."""
        return self._shards

    @property
    def split_keys(self) -> np.ndarray | None:
        """Current range-partition split keys (``None`` for hash/K=1)."""
        return None if self._splits is None else self._splits.copy()

    def _assign_owners(self) -> None:
        """(Re)build the page -> owning shard table from the split keys."""
        self._owners = np.searchsorted(self._splits, self._page_keys, side="right")

    def route(self, page_id: int) -> int:
        """Owning shard of one page under the current partition."""
        if self._splits is None:
            return int(slice_of(int(page_id), self._k))
        return int(self._owners[int(page_id)])

    def route_many(self, page_ids) -> np.ndarray:
        """Owning shard of each page: ONE gather from the owner table."""
        pages = np.asarray(page_ids, dtype=np.int64).ravel()
        if self._splits is None:
            return slice_of(pages, self._k)
        return self._owners[pages]

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, page_id: int) -> bool:
        return int(page_id) in self._shards[self.route(int(page_id))]

    @property
    def capacity_pages(self) -> int:
        return sum(shard.capacity_pages for shard in self._shards)

    @property
    def is_full(self) -> bool:
        return len(self) >= self.capacity_pages

    @property
    def hits(self) -> int:
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self) -> int:
        return sum(shard.misses for shard in self._shards)

    @property
    def evictions(self) -> int:
        return sum(shard.evictions for shard in self._shards)

    @property
    def insertions(self) -> int:
        return sum(shard.insertions for shard in self._shards)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def cached_pages(self) -> list[int]:
        """Cached pages, shard order, LRU-first within each shard."""
        out: list[int] = []
        for shard in self._shards:
            out.extend(shard.cached_pages())
        return out

    def owner_of(self, page_id: int) -> int | None:
        return self._shards[self.route(int(page_id))].owner_of(page_id)

    def was_evicted(self, page_id: int) -> bool:
        return self._shards[self.route(int(page_id))].was_evicted(page_id)

    def per_shard_stats(self) -> list[dict[str, int]]:
        """Per-shard counter snapshot (the report's ``shards`` rows)."""
        return [
            {
                "hits": shard.hits,
                "misses": shard.misses,
                "evictions": shard.evictions,
                "insertions": shard.insertions,
                "occupancy": len(shard),
                "capacity_pages": shard.capacity_pages,
            }
            for shard in self._shards
        ]

    # -- operations -----------------------------------------------------------

    def touch(self, page_id: int) -> bool:
        return self._shards[self.route(int(page_id))].touch(page_id)

    def insert(self, page_id: int, owner: int | None = None) -> None:
        self._shards[self.route(int(page_id))].insert(page_id, owner)

    def insert_many(self, page_ids, owner: int | None = None) -> None:
        self._fan_out("insert_many", *self._by_shard(page_ids), None, owner)

    def discard(self, page_id: int) -> bool:
        return self._shards[self.route(int(page_id))].discard(page_id)

    def clear(self) -> None:
        """Drop all cached pages; load history and splits persist."""
        for shard in self._shards:
            shard.clear()

    def reset_stats(self) -> None:
        for shard in self._shards:
            shard.reset_stats()
        self.hops = 0
        self.hop_seconds = 0.0
        self.rebalance_events = 0
        self.pages_moved = 0

    # -- batch operations -----------------------------------------------------

    def touch_many(self, page_ids) -> np.ndarray:
        """Touch every page on its owning shard; boolean hit mask.

        The demand path: hop latency accrues here (one hop per extra
        shard contacted) and a rebalancing cache feeds its hot-shard
        EWMA.  Sub-batches preserve input order, so each shard sees the
        touches it would have seen had every page been routed alone.
        """
        pages, groups = self._by_shard(page_ids)
        if not pages:
            return _NO_FLAGS
        hit = self._fan_out("touch_many", pages, groups, _NO_FLAGS)
        extra = len(groups) - 1
        self.hops += extra
        self.hop_seconds += extra * self.spec.hop_latency_s
        if self.spec.rebalance:
            counts = np.zeros(self._k)
            for shard_id, positions in groups.items():
                counts[shard_id] = len(positions)
            lam = self.spec.rebalance_lambda
            self._ewma = (1.0 - lam) * self._ewma + lam * counts
            self._batches += 1
            if self._batches % self.spec.rebalance_interval == 0:
                self._maybe_rebalance()
        return hit

    def _by_shard(self, page_ids) -> tuple[list[int], dict[int, Sequence[int]]]:
        """The batch as plain ints and its input positions by owning shard:
        one ``tolist``, one routing pass.  A shard that owns the whole batch
        (the common case under Hilbert locality) needs no position list."""
        pages = _as_ints(page_ids)
        if not pages:
            return pages, {}
        routed = self.route_many(pages).tolist()
        if routed.count(routed[0]) == len(routed):
            return pages, {routed[0]: range(len(pages))}
        groups: dict[int, list[int]] = {}
        for position, shard_id in enumerate(routed):
            groups.setdefault(shard_id, []).append(position)
        return pages, groups

    def _fan_out(self, op: str, pages: list[int], groups, empty, *args):
        """Run cache method ``op`` on the shards that own the batch.

        A whole-batch owner delegates intact; otherwise each shard gets its
        pages in input order and the answers are written back by position
        (``empty``: the answer to no pages and the dtype; ``None``: no answer).
        """
        if not groups:
            return empty
        if len(groups) == 1:
            (shard_id,) = groups
            return getattr(self._shards[shard_id], op)(pages, *args)
        out = None if empty is None else np.empty(len(pages), dtype=empty.dtype)
        for shard_id, positions in groups.items():
            answer = getattr(self._shards[shard_id], op)([pages[i] for i in positions], *args)
            if out is not None:
                out[positions] = answer
        return out

    def contains_many(self, page_ids) -> np.ndarray:
        return self._fan_out("contains_many", *self._by_shard(page_ids), _NO_FLAGS)

    def missing_many(self, page_ids) -> list[int]:
        pages, groups = self._by_shard(page_ids)
        if len(groups) < 2:
            return self._fan_out("missing_many", pages, groups, [])
        # An order-preserving filter, not a value per page: a straddling
        # batch asks where its pages are, on the routing it already has.
        cached = self._fan_out("contains_many", pages, groups, _NO_FLAGS).tolist()
        return [p for p, there in zip(pages, cached) if not there]

    def owners_many(self, page_ids) -> np.ndarray:
        return self._fan_out("owners_many", *self._by_shard(page_ids), _NO_OWNERS)

    def evicted_many(self, page_ids) -> np.ndarray:
        return self._fan_out("evicted_many", *self._by_shard(page_ids), _NO_FLAGS)

    # -- rebalancing ----------------------------------------------------------

    def _maybe_rebalance(self) -> None:
        """Move one split point off the hottest shard, if any is hot.

        Deterministic: driven solely by the EWMA state (a pure function
        of the touch sequence) and the static page keys.  The hot
        shard's owned key range is cut at the median owned key; the
        released half goes to the colder adjacent shard.  Cached pages
        whose owner changed migrate in LRU-first order with their owner
        tags (``discard`` + ``insert``: no eviction accounting at the
        source; migrations do count as insertions at the destination).
        """
        mean = float(self._ewma.mean())
        if mean <= 0.0:
            return
        hot = int(np.argmax(self._ewma))
        if float(self._ewma[hot]) <= self.spec.rebalance_threshold * mean:
            return
        hot_keys = np.sort(self._page_keys[self._owners == hot])
        if hot_keys.size < 2:
            return
        median = int(hot_keys[hot_keys.size // 2])
        lower = int(self._splits[hot - 1]) if hot > 0 else None
        upper = int(self._splits[hot]) if hot < self._k - 1 else None
        # Donating down (raise splits[hot-1] to the median) hands keys in
        # [lower, median) to shard hot-1; donating up (drop splits[hot] to
        # the median) hands keys in [median, upper) to shard hot+1.  A
        # direction is viable when it actually moves the boundary and
        # keeps the split keys sorted.
        can_down = lower is not None and median > lower and (upper is None or median <= upper)
        can_up = upper is not None and median < upper and (lower is None or median > lower)
        if can_down and can_up:
            down = float(self._ewma[hot - 1]) <= float(self._ewma[hot + 1])
        elif can_down or can_up:
            down = can_down
        else:
            return
        if down:
            destination = hot - 1
            self._splits[hot - 1] = median
        else:
            destination = hot + 1
            self._splits[hot] = median
        self._assign_owners()
        source_cache = self._shards[hot]
        moved = [
            page
            for page in source_cache.cached_pages()
            if (int(self._page_keys[page]) < median) == down
        ]
        for page in moved:
            owner = source_cache.owner_of(page)
            source_cache.discard(page)
            self._shards[destination].insert(page, owner)
        self.pages_moved += len(moved)
        self.rebalance_events += 1
        # Cool the pair to their joint mean so the same imbalance does
        # not re-trigger before fresh load is observed.
        pair_mean = (self._ewma[hot] + self._ewma[destination]) / 2.0
        self._ewma[hot] = pair_mean
        self._ewma[destination] = pair_mean


def make_sharded_cache(spec: ShardSpec, capacity_pages: int, index=None) -> ShardedCache:
    """Compile ``spec`` into a :class:`ShardedCache` of dict-cache shards.

    ``capacity_pages`` is the *total* budget unless the spec pins
    ``shard_cache_pages`` (per shard -- the scale-out story: each shard
    is its own node with its own memory).  ``hilbert`` partitioning
    with ``K > 1`` derives page keys from ``index`` (its dataset and
    page table); ``hash`` and ``K = 1`` need no index.
    """
    if spec.shard_cache_pages is not None:
        capacities = [spec.shard_cache_pages] * spec.n_shards
    else:
        if capacity_pages < 0:
            raise ValueError("cache capacity must be non-negative")
        base, remainder = divmod(int(capacity_pages), spec.n_shards)
        capacities = [
            base + (1 if shard < remainder else 0) for shard in range(spec.n_shards)
        ]
    shards = [PrefetchCache(pages) for pages in capacities]
    page_keys = None
    if spec.partition == "hilbert" and spec.n_shards > 1:
        if index is None:
            raise ValueError("hilbert partitioning needs the spatial index")
        page_keys = _cached_page_keys(index, spec.hilbert_bits)
    return ShardedCache(spec, shards, page_keys=page_keys)
