"""Tiered storage: a second cache tier plus pluggable miss-path mechanisms.

The serving stack so far reads every miss straight from the analytic
disk model.  Real deployments interpose a storage-side tier (an SSD or
host-memory page cache in front of the array) and, below it, small
hardware-ish structures that absorb specific miss patterns.  This module
models that hierarchy as a :class:`TieredStore` that is
interface-identical to :class:`~repro.storage.disk.DiskModel` /
:class:`~repro.storage.faults.FaultyDiskModel`, so every consumer --
``QuerySession``, ``ServingSimulator`` (both schedulers), the serving
daemon -- takes it unchanged.

The miss path follows the SimpleScalar memory-hierarchy taxonomy
(SNIPPETS.md, Snippet 3): on a tier miss the request probes, in order,

* a **victim buffer** -- a small fully-associative LRU holding pages
  recently evicted from the tier; a hit swaps the page back without
  touching the backing store;
* a **stream buffer** -- sequential-run readahead: each backing read
  prefills the next ``stream_depth`` page ids after every contiguous
  run, so sequential sweeps (exactly what prefetch plans emit) hit
  without re-positioning;
* a **miss cache** -- an LRU of recently *missed* page tags; a tag hit
  counts the request as resolved at the miss cache and bypasses the
  backing store (the structure measures what a small miss-holding
  buffer would absorb).

Mechanism hits are free, per the snippet's "no additional timing
penalty" modeling assumption; only backing reads charge time, through
the wrapped inner model (the sole mover of the simulated disk head), so
the per-tier partition invariant holds on every fault-free run::

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
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Mapping

from repro.storage.disk import DiskModel, DiskParameters, _canonical
from repro.storage.faults import FaultyDiskModel, ReadFailure
from repro.storage.pagefile import PageFile, TornPageError
from repro.storage.stats import IOStats

__all__ = [
    "MISS_PATHS",
    "STORAGE_BACKENDS",
    "StorageSpec",
    "TierStats",
    "TieredStore",
    "make_storage",
]

#: Miss-path mechanism names, per the SimpleScalar taxonomy.
MISS_PATHS = ("none", "victim", "miss", "stream", "combined")

#: Page-store backend names :class:`StorageSpec` accepts.
STORAGE_BACKENDS = ("ram", "mmap")


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
    #: Entries in the fully-associative victim buffer.
    victim_entries: int = 8
    #: Entries in the miss-cache tag store.
    miss_entries: int = 16
    #: Pages of sequential readahead per contiguous run.
    stream_depth: int = 4
    #: Simulated stall charged per backing fill call, in seconds --
    #: the tier's analogue of the fault plane's latency surcharges.
    fill_stall_s: float = 0.0
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
        if self.victim_entries < 1 or self.miss_entries < 1 or self.stream_depth < 1:
            raise ValueError("mechanism capacities must be >= 1")
        if self.fill_stall_s < 0:
            raise ValueError(f"fill_stall_s must be >= 0, got {self.fill_stall_s}")

    @property
    def tiering_active(self) -> bool:
        """Whether any tier structure can change the backing read set."""
        return self.tier_pages > 0 or self.miss_path != "none"

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StorageSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown storage spec key(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**dict(data))


@dataclass
class TierStats:
    """Per-layer counters of the tiered store (hits, fills, writebacks).

    One instance per store; each session snapshots it around its own
    disk reads to attribute deltas per client.  All fields are
    additive, so :meth:`merged_with` mirrors
    :class:`~repro.storage.stats.IOStats`.
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
    #: Simulated fill-stall seconds charged (included in ``seconds_busy``).
    stall_seconds: float = 0.0
    #: Page-file slots that failed checksum verification when served.
    torn_detected: int = 0
    #: Torn slots repaired from the page table (and cleanly re-read).
    torn_repaired: int = 0

    def merged_with(self, other: "TierStats") -> "TierStats":
        return TierStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def snapshot(self) -> "TierStats":
        copy = TierStats()
        copy.__dict__.update(self.__dict__)
        return copy

    @property
    def mechanism_hits(self) -> int:
        """Hits absorbed by the miss-path mechanisms (below the tier)."""
        return self.victim_hits + self.stream_hits + self.miss_hits


class TieredStore:
    """A disk-interface-identical wrapper adding a tier and miss path.

    Wraps a :class:`~repro.storage.disk.DiskModel` or
    :class:`~repro.storage.faults.FaultyDiskModel` and exposes the exact
    same surface (``params`` / ``stats`` / ``read_pages`` /
    ``trim_to_budget`` / ``cost_if_cold`` / ``estimate_read_time`` /
    ``reset_head`` / ``reset_stats`` and the recovery surface
    ``verify_delivery`` / ``recover_read``).  Planning calls
    (``trim_to_budget``, ``cost_if_cold``, ``estimate_read_time``)
    delegate to the inner model unconditionally: windows are sized from
    nominal device cost, conservatively ignoring tier hits, exactly as
    the fault layer sizes them from the healthy model.
    """

    def __init__(
        self,
        inner: DiskModel | FaultyDiskModel | None = None,
        spec: StorageSpec | None = None,
        page_table=None,
    ) -> None:
        self._inner = inner if inner is not None else DiskModel()
        self.spec = spec or StorageSpec()
        self.tier_stats = TierStats()
        self._tier: OrderedDict[int, None] = OrderedDict()
        self._victim: OrderedDict[int, None] = OrderedDict()
        self._stream: OrderedDict[int, None] = OrderedDict()
        self._miss_tags: OrderedDict[int, None] = OrderedDict()
        self._use_victim = self.spec.miss_path in ("victim", "combined")
        self._use_stream = self.spec.miss_path in ("stream", "combined")
        self._use_miss = self.spec.miss_path in ("miss", "combined")
        self._tiering = self.spec.tiering_active
        self._page_table = None
        self._pagefile: PageFile | None = None
        self._owns_pagefile = False
        if page_table is not None:
            self.bind_page_table(page_table)

    # -- delegated surface --------------------------------------------------

    @property
    def params(self) -> DiskParameters:
        return self._inner.params

    @property
    def stats(self) -> IOStats:
        return self._inner.stats

    @property
    def tiering_active(self) -> bool:
        return self._tiering

    def reset_head(self) -> None:
        self._inner.reset_head()

    def reset_stats(self) -> None:
        self._inner.reset_stats()
        self.tier_stats = TierStats()
        self._tier.clear()
        self._victim.clear()
        self._stream.clear()
        self._miss_tags.clear()

    def trim_to_budget(
        self, page_ids: Sequence[int] | Iterable[int], budget_s: float
    ) -> list[int]:
        return self._inner.trim_to_budget(page_ids, budget_s)

    def cost_if_cold(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        return self._inner.cost_if_cold(page_ids)

    def estimate_read_time(self, n_pages: int, contiguous_fraction: float = 0.5) -> float:
        return self._inner.estimate_read_time(n_pages, contiguous_fraction)

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
        misses: list[int] = []
        for page in pages:
            if self._tier_touch(page):
                ts.tier_hits += 1
            elif self._use_victim and page in self._victim:
                del self._victim[page]
                ts.victim_hits += 1
                self._tier_fill(page)
            elif self._use_stream and page in self._stream:
                del self._stream[page]
                ts.stream_hits += 1
                self._tier_fill(page)
            elif self._use_miss and page in self._miss_tags:
                ts.miss_hits += 1
                self._miss_tags.move_to_end(page)
                self._tier_fill(page)
            else:
                misses.append(page)
        if not misses:
            return 0.0

        try:
            elapsed = self._inner.read_pages(misses)
        except ReadFailure:
            ts.failed_fills += len(misses)
            raise
        ts.backing_pages += len(misses)
        ts.backing_calls += 1
        stall = self.spec.fill_stall_s
        if stall:
            ts.stall_seconds += stall
            self._inner.stats.seconds_busy += stall
            elapsed += stall
        if self._pagefile is not None:
            elapsed += self._serve_slots(misses)
        if self._use_miss:
            for page in misses:
                self._miss_tags[page] = None
                self._miss_tags.move_to_end(page)
                if len(self._miss_tags) > self.spec.miss_entries:
                    self._miss_tags.popitem(last=False)
        if self._use_stream:
            self._stream_fill(misses)
        for page in misses:
            self._tier_fill(page)
        return elapsed

    # -- tier structures ----------------------------------------------------

    def _tier_touch(self, page: int) -> bool:
        if page in self._tier:
            self._tier.move_to_end(page)
            return True
        return False

    def _tier_fill(self, page: int) -> None:
        if self.spec.tier_pages <= 0:
            return
        self._tier[page] = None
        self._tier.move_to_end(page)
        if len(self._tier) > self.spec.tier_pages:
            evicted, _ = self._tier.popitem(last=False)
            self.tier_stats.tier_evictions += 1
            if self._use_victim:
                self.tier_stats.writebacks += 1
                self._victim[evicted] = None
                self._victim.move_to_end(evicted)
                if len(self._victim) > self.spec.victim_entries:
                    self._victim.popitem(last=False)

    def _stream_fill(self, misses: Sequence[int]) -> None:
        """Prefill the successors of every contiguous run of the batch."""
        depth = self.spec.stream_depth
        capacity = depth * 4
        limit = None if self._page_table is None else self._page_table.n_pages
        for i, page in enumerate(misses):
            if i + 1 < len(misses) and misses[i + 1] == page + 1:
                continue  # not a run tail
            for ahead in range(page + 1, page + 1 + depth):
                if limit is not None and ahead >= limit:
                    break
                self._stream[ahead] = None
                self._stream.move_to_end(ahead)
        while len(self._stream) > capacity:
            self._stream.popitem(last=False)

    # -- byte service (mmap backend) ----------------------------------------

    def bind_page_table(self, page_table) -> None:
        """Attach the ground-truth page table (and open the page file).

        The ``mmap`` backend needs the table both to build its slots and
        to repair torn ones; the ``ram`` backend ignores it beyond using
        ``n_pages`` to bound stream readahead.  Safe to call repeatedly
        with the same table.
        """
        if page_table is self._page_table:
            return
        self._page_table = page_table
        if self.spec.backend != "mmap" or page_table is None:
            return
        if self._pagefile is not None:
            self._pagefile.close()
        if self.spec.path is not None:
            path = Path(self.spec.path)
            if path.exists():
                self._pagefile = PageFile(path)
                self._owns_pagefile = False
                return
        else:
            fd, name = tempfile.mkstemp(prefix="scout-pages-", suffix=".pf")
            os.close(fd)
            os.unlink(name)
            path = Path(name)
        self._pagefile = PageFile.create(path, page_table)
        self._owns_pagefile = self.spec.path is None

    def _serve_slots(self, pages: Sequence[int]) -> float:
        """Fetch real bytes for the pages; repair (never serve) torn slots.

        Verified slots cost nothing extra in simulated time -- the inner
        model already charged the read.  A torn slot (crashed writer) is
        detected by checksum, repaired from the page table, and charged
        one clean re-read, mirroring the fault plane's read-repair.
        """
        repair = 0.0
        for page in pages:
            if page >= self._pagefile.n_pages:
                continue
            try:
                self._pagefile.read_page(page)
            except TornPageError:
                self.tier_stats.torn_detected += 1
                self._pagefile.repair_page(page, self._page_table)
                self.tier_stats.torn_repaired += 1
                repair += self._inner.read_pages([page])
        return repair

    @property
    def pagefile(self) -> PageFile | None:
        return self._pagefile

    def close(self) -> None:
        """Flush and close the page file; remove it if it was private."""
        if self._pagefile is None:
            return
        path = self._pagefile.path
        self._pagefile.close()
        self._pagefile = None
        if self._owns_pagefile:
            try:
                os.unlink(path)
            except OSError:
                pass


def make_storage(
    inner: DiskModel | FaultyDiskModel,
    spec: StorageSpec,
    page_table=None,
) -> TieredStore:
    """Build the configured storage stack around an inner disk model.

    ``spec.backend`` selects the byte service (``ram`` serves from the
    page table, ``mmap`` from a checksummed page file; validated by
    :class:`StorageSpec`); the tier cache and miss-path mechanism ride
    on top in either case.
    """
    return TieredStore(inner, spec, page_table=page_table)
