"""Tiered storage: a second cache tier plus pluggable miss-path mechanisms.

The serving stack so far reads every miss straight from the analytic
disk model.  Real deployments interpose a storage-side tier (an SSD or
host-memory page cache in front of the array) and, below it, small
hardware-ish structures that absorb specific miss patterns.  This module
models that hierarchy as a :class:`TieredStore` that is
interface-identical to :class:`~repro.storage.disk.DiskModel` /
:class:`~repro.storage.faults.FaultyDiskModel`, so every consumer --
``QuerySession``, ``ServingSimulator``, the serving daemon -- takes it
unchanged.

The miss path follows the SimpleScalar memory-hierarchy taxonomy
(SNIPPETS.md, Snippet 3): on a tier miss the request probes, in order,

* a **victim buffer** -- a small fully-associative LRU holding pages
  recently evicted from the tier; a hit swaps the page back without
  touching the backing store;
* a **stream buffer** -- sequential-run readahead: each backing read
  prefills the next :data:`STREAM_DEPTH` page ids after every contiguous
  run, so sequential sweeps (exactly what prefetch plans emit) hit
  without re-positioning;
* a **miss cache** -- an LRU of recently *missed* page tags; a tag hit
  counts the request as resolved at the miss cache and bypasses the
  backing store (the structure measures what a small miss-holding
  buffer would absorb).

Mechanism hits are free, per the snippet's "no additional timing
penalty" modeling assumption; only backing reads charge time, through
the wrapped inner model (the sole mover of the simulated disk head),
and the store adds no stall of its own.  The per-tier partition
invariant holds on every fault-free run::

    requests == tier_hits + victim_hits + stream_hits + miss_hits
                + backing_pages (+ failed_fills under faults)

With the tier disabled (``tier_pages=0`` and ``miss_path="none"``) a
``ram`` spec changes nothing, so ``SimulationConfig.build_disk`` builds
no store for it; a store constructed anyway delegates every read to the
inner model -- bit-identical times and
:class:`~repro.storage.stats.IOStats`.  The ``mmap`` backend serves
*real bytes* from a :class:`~repro.storage.pagefile.PageFile`
(checksum-verified per slot; torn slots are repaired from the page
table, never served) while simulated time still comes from the inner
model, so a healthy page file is also metric-identical -- which is why
an ``mmap`` spec is built even with tiering off.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

from repro.storage.disk import DiskModel, _canonical
from repro.storage.faults import FaultyDiskModel, ReadFailure
from repro.storage.pagefile import PageFile, PageFileError, TornPageError

__all__ = [
    "MISS_PATHS",
    "STORAGE_BACKENDS",
    "StorageSpec",
    "TierStats",
    "TieredStore",
]

#: Miss-path mechanism names, per the SimpleScalar taxonomy.
MISS_PATHS = ("none", "victim", "miss", "stream", "combined")

#: Page-store backend names :class:`StorageSpec` accepts.
STORAGE_BACKENDS = ("ram", "mmap")

#: Entries in the fully-associative victim buffer.
VICTIM_ENTRIES = 8
#: Entries in the miss-cache tag store.
MISS_ENTRIES = 16
#: Pages of sequential readahead per contiguous run; the stream buffer
#: holds four runs' worth.
STREAM_DEPTH = 4


def _refresh(lru: dict, pages: Iterable[int], capacity: int) -> list[int]:
    """Make each page the most recent entry of ``lru``, in order, then trim
    ``lru`` to ``capacity``; returns the entries pushed out, least recent first.

    ``lru`` is a plain dict, whose insertion order is its recency order: a
    page is refreshed by popping and re-setting it, and the trim reads only
    the oldest keys past ``capacity`` (``islice``), never the whole
    structure, so a large tier pays nothing extra.  Trimming only ever
    takes the least recent entry, so one trim after the batch leaves the
    order that a trim after every page leaves, and for pages new to ``lru``
    and distinct pushes out the same entries.
    """
    for page in pages:
        lru.pop(page, None)
        lru[page] = None
    evicted = list(islice(lru, max(0, len(lru) - capacity)))
    for page in evicted:
        del lru[page]
    return evicted


@dataclass(frozen=True)
class StorageSpec:
    """Picklable spec of the storage hierarchy in front of the disk.

    Frozen and hashable so it can ride inside frozen simulation configs
    and cell specs, like :class:`~repro.storage.faults.FaultPlan`.  The
    default spec (``ram`` backend, no tier, no miss path) cannot change a
    read; a config holding it builds the bare disk model.
    """

    #: Where page bytes live: ``ram`` (the page table itself) or
    #: ``mmap`` (an on-disk :class:`~repro.storage.pagefile.PageFile`).
    backend: str = "ram"
    #: Miss-path mechanism: one of :data:`MISS_PATHS`.
    miss_path: str = "none"
    #: Capacity of the storage-side tier cache, in pages; 0 disables it.
    tier_pages: int = 0
    #: Page-file location for the ``mmap`` backend; ``None`` uses a
    #: private temporary file (kept out of cell specs so content hashes
    #: stay machine-independent).
    path: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in STORAGE_BACKENDS:
            raise ValueError(
                f"unknown storage backend {self.backend!r}; known: {list(STORAGE_BACKENDS)}"
            )
        if self.miss_path not in MISS_PATHS:
            raise ValueError(
                f"unknown miss path {self.miss_path!r}; known: {list(MISS_PATHS)}"
            )
        if self.tier_pages < 0:
            raise ValueError(f"tier_pages must be >= 0, got {self.tier_pages}")

    @property
    def tiering_active(self) -> bool:
        """Whether any tier structure can change the backing read set."""
        return self.tier_pages > 0 or self.miss_path != "none"


@dataclass
class TierStats:
    """Per-layer counters of the tiered store (hits, fills, writebacks).

    One instance per store, the only copy of these counts: the serving
    report and the daemon's final report read it as is.
    """

    #: Pages requested through the tiered read path.
    requests: int = 0
    #: Requests satisfied by the tier cache.
    tier_hits: int = 0
    #: Requests satisfied by the victim buffer (swapped back, no I/O).
    victim_hits: int = 0
    #: Requests satisfied by the stream buffer's readahead.
    stream_hits: int = 0
    #: Requests resolved at the miss cache (backing store bypassed).
    miss_hits: int = 0
    #: Pages filled into the tier from the backing store.
    backing_pages: int = 0
    #: Backing-store read calls issued.
    backing_calls: int = 0
    #: Pages evicted from the tier cache.
    tier_evictions: int = 0
    #: Evicted pages written back into the victim buffer.
    writebacks: int = 0
    #: Pages whose backing fill failed (exhausted-retries read faults).
    failed_fills: int = 0
    #: Always 0.0: nothing charges a fill stall.  Kept only because
    #: ``benchmarks/e2e/e2e_bench.py`` reads it into its traced counts.
    stall_seconds: float = 0.0
    #: Page-file slots that failed checksum verification when served.
    torn_detected: int = 0
    #: Torn slots repaired from the page table (and cleanly re-read).
    torn_repaired: int = 0

    @property
    def mechanism_hits(self) -> int:
        """Hits absorbed by the miss-path mechanisms (below the tier)."""
        return self.victim_hits + self.stream_hits + self.miss_hits


class TieredStore:
    """A disk-interface-identical wrapper adding a tier and miss path.

    Wraps a :class:`~repro.storage.disk.DiskModel` or
    :class:`~repro.storage.faults.FaultyDiskModel` and exposes the exact
    same surface (``stats`` / ``read_pages`` / ``trim_to_budget`` /
    ``cost_if_cold`` and the recovery surface ``verify_delivery`` /
    ``recover_read``).  Planning
    calls (``trim_to_budget``, ``cost_if_cold``) delegate to the inner
    model unconditionally: windows are sized from nominal device cost,
    conservatively ignoring tier hits, exactly as the fault layer sizes
    them from the healthy model.
    """

    def __init__(self, inner: DiskModel | FaultyDiskModel, spec: StorageSpec) -> None:
        self._inner = inner
        self.spec = spec
        self.tier_stats = TierStats()
        # Plain dicts: insertion order is recency order, least recent first.
        self._tier: dict[int, None] = {}
        self._victim: dict[int, None] = {}
        self._stream: dict[int, None] = {}
        self._miss_tags: dict[int, None] = {}
        self._use_victim = self.spec.miss_path in ("victim", "combined")
        self._use_stream = self.spec.miss_path in ("stream", "combined")
        self._use_miss = self.spec.miss_path in ("miss", "combined")
        self._tiering = self.spec.tiering_active
        self._page_table = None
        self._pagefile: PageFile | None = None

    # -- delegated surface --------------------------------------------------

    def trim_to_budget(
        self, page_ids: Sequence[int] | Iterable[int], budget_s: float
    ) -> list[int]:
        return self._inner.trim_to_budget(page_ids, budget_s)

    def cost_if_cold(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        return self._inner.cost_if_cold(page_ids)

    def verify_delivery(self, page_ids: Sequence[int] | Iterable[int], page_table) -> float:
        return self._inner.verify_delivery(page_ids, page_table)

    def recover_read(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        return self._inner.recover_read(page_ids)

    # -- the tiered read path ------------------------------------------------

    def read_pages(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        """Charge and return the time to read the pages through the tiers.

        Each page resolves at exactly one layer (tier cache, victim
        buffer, stream buffer, miss cache, or the backing store), and
        only the backing batch charges time.  With tiering disabled
        (the ``mmap`` byte service alone) the inner model reads the
        whole batch -- no extra float operations, no randomness -- so
        simulated time is bit-identical to the inner model's.
        """
        # Materialized once: ``page_ids`` may be a one-shot iterable.
        pages = _canonical(page_ids)
        if not self._tiering:
            elapsed = self._inner.read_pages(pages)
            if self._pagefile is not None:
                elapsed += self._serve_slots(pages)
            return elapsed

        if not pages:
            return 0.0
        ts = self.tier_stats
        ts.requests += len(pages)
        tier, victim, stream, miss_tags = self._tier, self._victim, self._stream, self._miss_tags
        use_victim, use_stream, use_miss = self._use_victim, self._use_stream, self._use_miss
        misses: list[int] = []
        tier_hits = 0
        for page in pages:
            if page in tier:
                del tier[page]
                tier[page] = None
                tier_hits += 1
            elif use_victim and page in victim:
                del victim[page]
                ts.victim_hits += 1
                self._tier_fill((page,))
            elif use_stream and page in stream:
                del stream[page]
                ts.stream_hits += 1
                self._tier_fill((page,))
            elif use_miss and page in miss_tags:
                ts.miss_hits += 1
                del miss_tags[page]
                miss_tags[page] = None
                self._tier_fill((page,))
            else:
                misses.append(page)
        ts.tier_hits += tier_hits
        if not misses:
            return 0.0

        try:
            elapsed = self._inner.read_pages(misses)
        except ReadFailure:
            ts.failed_fills += len(misses)
            raise
        ts.backing_pages += len(misses)
        ts.backing_calls += 1
        if self._pagefile is not None:
            elapsed += self._serve_slots(misses)
        # Nothing below looks a page up, so each structure is refreshed
        # once for the whole batch.
        if use_miss:
            _refresh(miss_tags, misses, MISS_ENTRIES)
        if use_stream:
            self._stream_fill(misses)
        self._tier_fill(misses)
        return elapsed

    # -- tier structures ----------------------------------------------------

    def _tier_fill(self, pages: Sequence[int]) -> None:
        """Fill pages the tier does not hold; its evictions go to the victim buffer."""
        evicted = _refresh(self._tier, pages, self.spec.tier_pages) if self.spec.tier_pages else ()
        if evicted:
            self.tier_stats.tier_evictions += len(evicted)
            if self._use_victim:
                self.tier_stats.writebacks += len(evicted)
                _refresh(self._victim, evicted, VICTIM_ENTRIES)

    def _stream_fill(self, misses: list[int]) -> None:
        """Prefill the successors of every contiguous run of the batch.

        ``misses`` is strictly increasing, so a page is a run tail exactly
        when its successor in the batch is not ``page + 1``; pairing each
        miss with the next one finds the tails in one pass.
        """
        limit = float("inf") if self._page_table is None else self._page_table.n_pages
        ahead = []
        for page, after in zip(misses, misses[1:] + [None]):
            if after != page + 1:  # a run tail
                ahead.extend(range(page + 1, min(page + 1 + STREAM_DEPTH, limit)))
        _refresh(self._stream, ahead, STREAM_DEPTH * 4)

    # -- byte service (mmap backend) ----------------------------------------

    def bind_page_table(self, page_table) -> None:
        """Attach the ground-truth page table (and open the page file).

        The ``mmap`` backend needs the table both to build its slots and
        to repair torn ones; the ``ram`` backend ignores it beyond using
        ``n_pages`` to bound stream readahead.  A private page file (no
        ``spec.path``) is unlinked as soon as it is mapped: the mapping
        outlives the name (POSIX), so no exit -- a crash or a kill
        included -- leaves it behind.
        """
        self._page_table = page_table
        if self.spec.backend != "mmap" or page_table is None:
            return
        self.close()
        if self.spec.path is None:
            fd, name = tempfile.mkstemp(prefix="scout-pages-", suffix=".pf")
            os.close(fd)
            try:
                self._pagefile = PageFile.create(name, page_table)
            finally:
                os.unlink(name)
            return
        path = Path(self.spec.path)
        if path.exists():
            pagefile = PageFile(path)
            try:
                pagefile.check_table(page_table)
            except PageFileError:
                pagefile.close()
                raise
            self._pagefile = pagefile
            return
        self._pagefile = PageFile.create(path, page_table)

    def _serve_slots(self, pages: Sequence[int]) -> float:
        """Fetch real bytes for the pages; repair (never serve) torn slots.

        Verified slots cost nothing extra in simulated time -- the inner
        model already charged the read.  A torn slot (crashed writer) is
        detected by checksum, repaired from the page table, and charged
        one clean re-read, mirroring the fault plane's read-repair.
        """
        repair = 0.0
        for page in pages:
            try:
                self._pagefile.read_page(page)
            except TornPageError:
                self.tier_stats.torn_detected += 1
                self._pagefile.repair_page(page, self._page_table)
                self.tier_stats.torn_repaired += 1
                repair += self._inner.read_pages([page])
        return repair

    def close(self) -> None:
        """Flush and close the page file."""
        if self._pagefile is not None:
            self._pagefile.close()
            self._pagefile = None
