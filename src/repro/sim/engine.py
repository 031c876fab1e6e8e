"""The execution simulator (paper Figure 2).

For every query of a guided sequence the engine:

1. serves the query: needed pages found in the prefetch cache are hits,
   the rest is *residual I/O* read from the simulated disk;
2. opens the prefetch window: ``window_ratio x`` the query's cold read
   time (the paper's ``r = u/d`` analysis-time model, §7.2);
3. lets the prefetcher observe the query (bounds + result content) and
   charges its simulated prediction cost against the window;
4. executes the prefetcher's plan incrementally (§5.1): growing regions
   advance along each target's axis, and every page read charges disk
   time against the remaining window -- prefetching stops mid-plan the
   moment the user "issues the next query".

All I/O is page-granular and deterministic; see DESIGN.md §2 for the
substitution rationale.

The per-query loop lives in :meth:`QuerySession.step_query`: one
straight-line function (serve → window → observe/predict → prefetch)
that every driver calls.  :meth:`SimulationEngine.run` steps a single
session to completion over a private cache and disk -- the classic
one-client experiment -- while the serving layer
(:mod:`repro.sim.serve`, DESIGN.md §6) interleaves many sessions over
one shared cache and disk to model concurrent users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from repro.baselines.base import ObservedQuery, Prefetcher, PrefetchTarget
from repro.index.base import SpatialIndex, region_corners
from repro.sim.metrics import ClientMetrics, QueryRecord, SequenceMetrics
from repro.storage.cache import PrefetchCache
from repro.storage.disk import DiskModel, DiskParameters
from repro.storage.faults import CircuitBreaker, FaultPlan, FaultyDiskModel, ReadFailure
from repro.storage.sharded import ShardedCache, ShardSpec, make_sharded_cache
from repro.storage.tiered import StorageSpec, TieredStore, make_storage
from repro.workload.sequence import QuerySequence

__all__ = ["QuerySession", "SimulationConfig", "SimulationEngine"]


class _SharedProbeStream:
    """Memoized per-region page lists of one target's probe boxes.

    Plan execution consumes one incremental region at a time (budget
    spending decides when to stop), but the regions themselves do not
    depend on probe results -- so the stream resolves them a chunk
    ahead, answering all of the chunk's page lookups in one vectorized
    :meth:`~repro.index.base.SpatialIndex.pages_for_regions` pass.
    ``regions`` is anything that method takes and that slices: a
    target's explicit ``AABB`` tuple, or the packed ``(n, 2, 3)``
    corners of an incremental schedule (no ``AABB`` is ever built for
    those).  Per-region results are identical to one-at-a-time calls; a
    partially consumed chunk merely wasted some (cheap, vectorized)
    lookahead.

    Plan-sharing groups (see :mod:`repro.sim.serve`) execute the *same*
    plan against different per-client budgets and cache states: each
    member consumes a prefix of the target's probe sequence through its
    own :meth:`view`, the prefix length depending on its own spending.
    Resolved chunks are memoized, so the group pays for each index
    lookup once while every member sees the identical per-region page
    sets it would have computed alone (probe resolution is pure: region
    in, pages out).  A query stepped alone is the one-consumer case of
    the same schedule.
    """

    def __init__(self, index, regions, chunk: int = 8) -> None:
        self._index = index
        self._regions = regions
        self._chunk = max(1, int(chunk))
        self._resolved: list = []

    def get(self, position: int):
        """The page ids of the region at ``position``, or ``None`` past the end."""
        while position >= len(self._resolved) and len(self._resolved) < len(self._regions):
            resolve_ahead(self._index, [self])
        if position < len(self._resolved):
            return self._resolved[position]
        return None

    def view(self) -> "_ProbeCursor":
        """An independent cursor over the shared stream."""
        return _ProbeCursor(self)


class _ProbeCursor:
    """One consumer's position in a :class:`_SharedProbeStream`."""

    def __init__(self, stream: _SharedProbeStream) -> None:
        self._stream = stream
        self._position = 0

    def next(self):
        item = self._stream.get(self._position)
        if item is not None:
            self._position += 1
        return item


def resolve_ahead(index: SpatialIndex, streams: list[_SharedProbeStream]) -> None:
    """Resolve the next chunk of every stream in ONE ``pages_for_regions`` pass.

    ``get`` is the one-stream call; the lockstep tick hands in every
    stream of the tick.  Chunks concatenate as packed corners and the
    answers split back: each stream holds what it would have alone.
    """
    chunks = [s._regions[len(s._resolved) : len(s._resolved) + s._chunk] for s in streams]
    pending = [(stream, chunk) for stream, chunk in zip(streams, chunks) if len(chunk)]
    if not pending:
        return
    if len(pending) == 1:
        regions = pending[0][1]
    else:
        los, his = zip(*(region_corners(chunk) for _, chunk in pending))
        regions = np.stack((np.concatenate(los), np.concatenate(his)), axis=1)
    answers = iter(index.pages_for_regions(regions))
    for stream, chunk in pending:
        stream._resolved.extend(islice(answers, len(chunk)))


@dataclass
class _QueryBundle:
    """The pure (cache- and disk-independent) work of one query.

    :meth:`QuerySession.step_query` computes each field the first time
    a step needs it and reads it afterwards, so whoever comes first --
    the lockstep tick's :meth:`QuerySession.fill_ahead`, or the step
    itself -- fills the record and later members of a plan-sharing
    group (:meth:`QuerySession.step_query_replay`) read it.  Everything here
    is a pure function of the shared sequence and the
    (bitwise-identical) prefetcher state, so reading it is exactly the
    computation the follower would have done itself; all cache touches,
    disk reads and budget spending stay per-client.  ``None`` marks a
    field nobody has computed yet.
    """

    cursor: int
    result: object = None
    pages: np.ndarray | None = None
    #: Result objects stored on each page of ``pages`` (aligned with it).
    objects_on_page: np.ndarray | None = None
    cold: float | None = None
    prediction_cost: float | None = None
    build_cost: float | None = None
    gap_pages: list | None = None
    targets: list | None = None
    streams: list | None = None
    n_candidates: int | None = None


@dataclass(frozen=True)
class SimulationConfig:
    """Engine knobs (defaults follow the paper's setup, scaled)."""

    #: Prefetch cache capacity in pages; ``None`` uses the paper's ratio
    #: of cache to dataset size (4 GB / 33 GB ≈ 12 % of the pages).
    cache_capacity_pages: int | None = None

    disk: DiskParameters = field(default_factory=DiskParameters)

    #: First incremental prefetch region side, as a fraction of the
    #: query side (§5.1: start small near the exit location E).
    incremental_start_fraction: float = 0.55

    #: Growth factor of successive incremental regions.
    incremental_growth: float = 1.25

    #: Largest incremental region side as a fraction of the query side.
    incremental_max_fraction: float = 1.5

    #: Fraction of the current region side each incremental step
    #: advances along the extrapolated axis (overlapping regions re-hit
    #: cached pages at no cost, §5.1).
    incremental_advance_fraction: float = 0.6

    #: Upper bound on incremental steps per target (windows run out far
    #: earlier in practice; this is a safety net).
    incremental_max_steps: int = 24

    #: Fault-injection plan for every disk this config builds (``None``:
    #: the never-failing model).  A plan whose rates are all zero cannot
    #: inject anything, so no fault layer is built for it either
    #: (DESIGN.md §6.3); reports still carry the (all-zero) fault counters.
    faults: FaultPlan | None = None

    #: Tiered-storage spec for every disk this config builds (``None``:
    #: the bare model).  A ``ram`` spec with no tier pages and
    #: ``miss_path="none"`` cannot change a read, so no store is built.
    storage: StorageSpec | None = None

    #: Sharded-cache spec (``None``: the single shared cache).  A
    #: one-shard spec is that single cache, sized by its
    #: ``shard_cache_pages`` when set.
    shards: ShardSpec | None = None

    def cache_capacity_for(self, index: SpatialIndex) -> int:
        if self.cache_capacity_pages is not None:
            return self.cache_capacity_pages
        return max(256, int(0.12 * index.n_pages))

    # The one pass-through rule (DESIGN.md §6.3): a spec that cannot change
    # behaviour builds nothing.  Reports keep reading the *config* for
    # their gate flags, so an inert spec still echoes in stored records.

    def build_disk(self) -> DiskModel | FaultyDiskModel | TieredStore:
        """The disk this config prescribes: bare, fault-wrapped, tiered."""
        faults, storage = self.faults, self.storage
        if faults is None or not faults.active:
            disk: DiskModel | FaultyDiskModel = DiskModel(self.disk)
        else:
            disk = FaultyDiskModel(self.disk, faults)
        # An mmap store serves real bytes even with tiering off.
        if storage is None or (not storage.tiering_active and storage.backend == "ram"):
            return disk
        return make_storage(disk, storage)

    def build_cache(self, index: SpatialIndex) -> PrefetchCache | ShardedCache:
        """The prefetch cache this config prescribes: plain or sharded."""
        capacity = self.cache_capacity_for(index)
        shards = self.shards
        if shards is not None and shards.sharding_active:
            return make_sharded_cache(shards, capacity, index=index)
        # One shard is the plain cache; a per-shard size is its size.
        if shards is not None and shards.shard_cache_pages is not None:
            capacity = shards.shard_cache_pages
        return PrefetchCache(capacity)


class SimulationEngine:
    """Runs prefetchers against guided query sequences."""

    def __init__(
        self,
        index: SpatialIndex,
        config: SimulationConfig | None = None,
    ) -> None:
        self.index = index
        self.config = config or SimulationConfig()

    # -- incremental prefetch expansion (§5.1) ------------------------------------------

    def _step_schedule(self, side: float) -> tuple[np.ndarray, np.ndarray]:
        """``(offsets, half_sides)`` of the incremental steps for one plan.

        Step ``k`` probes a cube of half-side ``half_sides[k]`` centred
        ``offsets[k]`` along the target's axis: sides start small near
        the exit and grow by ``incremental_growth`` up to the cap, each
        step advancing by a fraction of the current side.  The schedule
        depends only on the query side and the config, never on the
        target.
        """
        cfg = self.config
        region_side = side * cfg.incremental_start_fraction
        max_side = side * cfg.incremental_max_fraction
        advanced = 0.0
        offsets, half_sides = [], []
        for _ in range(cfg.incremental_max_steps):
            offsets.append(advanced + region_side / 2.0)
            half_sides.append(region_side / 2.0)
            advanced += region_side * cfg.incremental_advance_fraction
            region_side = min(region_side * cfg.incremental_growth, max_side)
        return np.array(offsets), np.array(half_sides)

    def _incremental_boxes(
        self, target: PrefetchTarget, offsets: np.ndarray, half_sides: np.ndarray
    ) -> np.ndarray:
        """Packed ``(n, 2, 3)`` lo/hi corners of one target's growing regions.

        Row ``k`` is the box ``AABB.from_center_extent`` would build at
        ``anchor + direction * offsets[k]`` with side ``2 *
        half_sides[k]`` -- the same floating-point operations, over the
        whole schedule at once.  A target without direction expands in
        place.
        """
        centers = target.anchor + target.direction * offsets[:, None]
        half = half_sides[:, None]
        return np.stack((centers - half, centers + half), axis=1)

    # -- one sequence ---------------------------------------------------------------------

    def run(self, sequence: QuerySequence, prefetcher: Prefetcher) -> SequenceMetrics:
        """Execute one sequence with one prefetcher, cold caches.

        Steps one :class:`QuerySession` to completion over a private
        cache and disk.
        """
        return QuerySession(self, sequence, prefetcher).run()

    def _probe_streams(self, targets: list[PrefetchTarget], query) -> list[_SharedProbeStream]:
        """One probe stream per target: its explicit regions, or its
        incremental boxes on the plan's step schedule (computed once,
        and only for a plan that has an incremental target)."""
        schedule = None
        streams = []
        for target in targets:
            regions = target.regions
            if regions is None:
                if schedule is None:
                    side = float(np.cbrt(max(query.bounds.volume, 1e-30)))
                    schedule = self._step_schedule(side)
                regions = self._incremental_boxes(target, *schedule)
            streams.append(_SharedProbeStream(self.index, regions))
        return streams

    def _execute_plan(
        self,
        targets: list[PrefetchTarget],
        query,
        cache: PrefetchCache,
        disk: DiskModel,
        budget: float,
        owner: int | None = None,
        streams: list[_SharedProbeStream] | None = None,
    ) -> tuple[int, float]:
        """Spend the window on the plan; returns (pages read, seconds).

        ``owner`` tags inserted pages with the prefetching client for
        shared-cache accounting (see :mod:`repro.sim.serve`); it never
        affects spending or eviction decisions.

        The budget is split share-proportionally across targets and spent
        in passes: each pass grants every still-active target its share
        of the budget remaining at the start of the pass, plus whatever
        earlier targets in the same pass left unspent.  A target whose
        region iterator runs dry drops out, and the next pass re-grants
        the leftover to the targets that can still spend -- so one dead
        target cannot strand window time that live targets could use
        (§5.1 prefetches until the window closes whenever predicted data
        remains).

        Each incremental region's missing pages are read as one batch so
        contiguous page runs earn the sequential discount, exactly like
        residual query I/O does; the batch that crosses the budget line
        is trimmed so the window is overshot by at most one page read.

        ``streams`` is one (possibly shared) :class:`_SharedProbeStream`
        per target, consumed through a private cursor; a caller with no
        streams of its own gets fresh ones.
        """
        if not targets:
            return 0, 0.0
        page_table = self.index.page_table
        if streams is None:
            streams = self._probe_streams(targets, query)
        states = [
            {"share": t.share, "probes": stream.view(), "done": False}
            for t, stream in zip(targets, streams)
        ]

        pages_read = 0
        seconds = 0.0
        remaining = budget
        while remaining > 1e-12:
            active = [s for s in states if not s["done"]]
            if not active:
                break
            total_share = sum(s["share"] for s in active) or 1.0
            pass_budget = remaining
            advanced = False
            carry = 0.0
            for state in active:
                if remaining <= 0:
                    break
                allotment = pass_budget * (state["share"] / total_share) + carry
                spent = 0.0
                while spent < allotment and remaining > 0:
                    probe_pages = state["probes"].next()
                    if probe_pages is None:
                        state["done"] = True
                        break
                    advanced = True
                    batch = cache.missing_many(probe_pages)
                    if not batch:
                        continue
                    batch = disk.trim_to_budget(batch, remaining)
                    try:
                        cost = disk.read_pages(batch)
                    except ReadFailure as failure:
                        # Enrich the failure with the partial work done
                        # so the caller can account the window's actual
                        # spending.
                        failure.prior_pages = pages_read
                        failure.prior_seconds = seconds
                        raise
                    # Delivered payloads are verified before the cache
                    # insert (read-repair; free on a fault-free disk).
                    cost += disk.verify_delivery(batch, page_table)
                    spent += cost
                    remaining -= cost
                    seconds += cost
                    pages_read += len(batch)
                    cache.insert_many(batch, owner)
                carry = max(0.0, allotment - spent)
            if not advanced:
                break
        return pages_read, seconds


class QuerySession:
    """One client's sequence, advanced one whole query at a time.

    :meth:`step_query` is the paper's Figure-2 timeline as one
    straight-line function, and the only method that advances a query:

    *serve*
        execute the query; cached pages are hits, the rest is residual
        I/O read from the (possibly shared) disk;
    *window*
        open the prefetch window (``window_ratio x`` the cold read time);
    *predict*
        let the prefetcher observe the query and charge its prediction
        cost against the window;
    *prefetch*
        spend the remaining window on gap I/O and the incremental plan,
        then append the query's :class:`QueryRecord`.

    A session run to completion over a private cache and disk is the
    classic single-client experiment the golden-metrics suite pins.
    :class:`~repro.sim.serve.ServingSimulator` and the serving daemon
    instead pass many sessions one *shared* cache and disk and
    interleave their steps; ``client_id`` tags that session's prefetched
    pages so the shared cache can attribute hits across clients
    (DESIGN.md §6).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        sequence: QuerySequence,
        prefetcher: Prefetcher,
        *,
        cache: PrefetchCache | ShardedCache | None = None,
        disk: DiskModel | None = None,
        client_id: int | None = None,
    ) -> None:
        self.engine = engine
        self.sequence = sequence
        self.prefetcher = prefetcher
        config = engine.config
        self.cache = config.build_cache(engine.index) if cache is None else cache
        self.disk = config.build_disk() if disk is None else disk
        self.client_id = client_id
        self.metrics = SequenceMetrics()
        #: This client's per-sequence records plus its shared-cache,
        #: fault, tier and shard attribution (DESIGN.md §6/§7/§9/§10);
        #: the serving report takes it as is.
        self.client_metrics = ClientMetrics(client_id=client_id, metrics=self.metrics)
        self._cursor = 0
        # Tier counters and the sharded cache's hop clock are shared by
        # every session on the store / cache; each session attributes
        # its own share by snapshotting around its own (synchronous)
        # disk reads and demand touches (DESIGN.md §9/§10).
        self._shard_cache = self.cache if isinstance(self.cache, ShardedCache) else None
        self._tier_store: TieredStore | None = None
        if isinstance(self.disk, TieredStore):
            self.disk.bind_page_table(engine.index.page_table)
            if self.disk.tiering_active:
                self._tier_store = self.disk
        # Armed from the config's plan: every driver builds the disk it
        # passes in from this same config (``build_disk``).
        self._breaker: CircuitBreaker | None = None
        plan = config.faults
        if plan is not None and plan.breaker:
            self._breaker = CircuitBreaker(plan.breaker_threshold, plan.breaker_cooldown)
        prefetcher.begin_sequence()

    # -- tiered-storage attribution ---------------------------------------------------

    def _tier_mark(self):
        """Snapshot the shared store's counters before this session's I/O.

        Disk operations within one step are synchronous -- no other
        session runs between the mark and the matching collect under
        any scheduler -- so the counter delta is exactly this session's
        share of the store's per-layer activity.
        """
        store = self._tier_store
        return None if store is None else store.tier_stats.snapshot()

    def _tier_collect(self, mark) -> None:
        if mark is None:
            return
        now = self._tier_store.tier_stats
        mine = self.client_metrics
        mine.tier_hits += now.tier_hits - mark.tier_hits
        mine.miss_path_hits += now.mechanism_hits - mark.mechanism_hits
        mine.tier_fills += now.backing_pages - mark.backing_pages
        mine.tier_stall_seconds += now.stall_seconds - mark.stall_seconds

    # -- state ----------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether every query of the sequence has completed."""
        return self._cursor >= len(self.sequence.queries)

    @property
    def query_index(self) -> int:
        """Index of the next query to be stepped."""
        return self._cursor

    def renew(self, prefetcher: Prefetcher) -> "QuerySession":
        """A fresh session on the same sequence, cache, disk and client id.

        The serving daemon's session-reuse hook (DESIGN.md §8): a
        connection whose session is exhausted wraps around to a new one
        with fresh prefetcher and metrics state, while the shared cache
        and disk keep their contents -- exactly what a long-lived client
        re-navigating its region looks like to the serving plane.
        """
        return QuerySession(
            self.engine,
            self.sequence,
            prefetcher,
            cache=self.cache,
            disk=self.disk,
            client_id=self.client_id,
        )

    # -- stepping -------------------------------------------------------------------

    def run(self) -> SequenceMetrics:
        """Step the session to completion (the single-client experiment)."""
        while not self.done:
            self.step_query()
        return self.metrics

    def _fill_served(self, work: "_QueryBundle", result=None) -> None:
        """The index result, its page array and its cold read time."""
        bounds = self.sequence.queries[work.cursor].bounds
        work.result = self.engine.index.query(bounds) if result is None else result
        work.pages = np.asarray(work.result.page_ids, dtype=np.int64).ravel()
        work.cold = self.disk.cost_if_cold(work.pages)

    def _fill_prediction(self, work: "_QueryBundle") -> None:
        """Observe the query; prediction / build cost and the gap list."""
        prefetcher, bounds = self.prefetcher, self.sequence.queries[work.cursor].bounds
        prefetcher.observe(ObservedQuery(work.cursor, bounds, work.result.object_ids))
        work.prediction_cost = prefetcher.prediction_cost_seconds()
        work.build_cost = prefetcher.graph_build_cost_seconds()
        # The scheduler only shares plans for gap-free prefetchers, so a
        # group's members all see the same (empty) gap list.
        work.gap_pages = prefetcher.gap_io_pages()

    def _fill_plan(self, work: "_QueryBundle") -> None:
        """The plan's targets, one probe stream each."""
        work.targets = self.prefetcher.plan()
        query = self.sequence.queries[work.cursor]
        work.streams = self.engine._probe_streams(work.targets, query)

    def fill_ahead(self, result) -> "_QueryBundle":
        """The next query's pure work, as far as its step is certain to go.

        The lockstep tick's hoist (DESIGN.md §6.1): the served part
        always; the observation when the breaker is absent or closed
        (only this session's own step changes it); the plan when no gap
        I/O precedes it and the window outlasts the prediction cost.
        """
        work = _QueryBundle(cursor=self._cursor)
        self._fill_served(work, result)
        if self._breaker is None or self._breaker.state == CircuitBreaker.CLOSED:
            self._fill_prediction(work)
            window = self.sequence.window_ratio * work.cold
            if not work.gap_pages and window - work.prediction_cost > 0:
                self._fill_plan(work)
        return work

    def step_query_capture(self) -> "_QueryBundle | None":
        """Advance one query alone; returns the record of its pure work,
        which the daemon's plan tapes keep for later sessions on the walk
        to read via :meth:`step_query_replay`."""
        if self.done:
            return None
        work = _QueryBundle(cursor=self._cursor)
        self.step_query(None, work)
        return work

    def step_query_replay(self, work: "_QueryBundle") -> QueryRecord | None:
        """Advance one query, reading a leader's pure work.

        Only valid when this session is bitwise-identical to the
        leader in its pure computations (same sequence object, same
        start tick, same prefetcher kind -- the scheduler's grouping
        invariant): observing and planning are skipped entirely, so
        this session's prefetcher state goes stale and must never be
        consulted again.  Cache touches, disk reads and budget spending
        all still happen here, per-client, in scheduler order.
        """
        return self.step_query(None, work)

    def step_query(self, result=None, work: "_QueryBundle | None" = None) -> QueryRecord | None:
        """Advance one whole query; its record, or ``None`` when done.

        ``result`` is the query's index result when the caller already
        resolved it (element-wise identical to the per-query call).
        ``work`` is the query's pure-work record when the lockstep tick
        filled one ahead or a plan-sharing group shares one: the step
        reads what is filled and computes the rest through the same
        ``_fill_*`` definitions, so a query stepped alone is the case
        of a record nobody has filled.
        """
        if self.done:
            return None
        if work is None:
            work = _QueryBundle(cursor=self._cursor)
        elif work.cursor != self._cursor:
            raise ValueError(f"bundle for query {work.cursor} replayed at cursor {self._cursor}")
        engine, cache, disk = self.engine, self.cache, self.disk
        mine = self.client_metrics
        page_table = engine.index.page_table
        query = self.sequence.queries[self._cursor]

        # -- serve ------------------------------------------------------------------
        if work.result is None:
            self._fill_served(work, result)
        result, pages = work.result, work.pages

        # Pages in the prefetch cache are hits; the rest is residual
        # I/O.  Result pages do NOT enter the prefetch cache -- the
        # cache holds prefetched data only ("percentage of data read
        # from the prefetch cache rather than from disk", §3.3).
        # touch never inserts, so membership is invariant across the
        # batch and the hit mask's complement is exactly the miss set.
        shard_cache = self._shard_cache
        hop_mark = 0.0 if shard_cache is None else shard_cache.hop_seconds
        hit_mask = cache.touch_many(pages)
        hop_seconds = 0.0 if shard_cache is None else shard_cache.hop_seconds - hop_mark
        mine.shard_hop_seconds += hop_seconds
        hit_pages = pages[hit_mask]
        miss_pages = pages[~hit_mask]
        tier_mark = self._tier_mark()
        try:
            residual = disk.read_pages(miss_pages)
        except ReadFailure as failure:
            # The user is still owed the data: recover with a clean
            # demand re-read, charging both the doomed attempts and
            # the recovery read to residual time.  For accounting these
            # pages are failed reads, not ordinary misses: hits + misses
            # + failed_reads partitions the cache's touch counts.
            residual = failure.seconds + disk.recover_read(miss_pages)
            mine.failed_reads += int(miss_pages.size)
        else:
            mine.shared_misses += int(miss_pages.size)
        self._tier_collect(tier_mark)
        if hop_seconds:
            # Cross-shard fan-out on the demand path is user-visible
            # latency: charge it to residual time like a tier stall.
            residual += hop_seconds

        n_hits = int(hit_pages.size)
        mine.shared_hits += n_hits
        if self.client_id is not None:
            owners = cache.owners_many(hit_pages)
            mine.cross_client_hits += int(np.count_nonzero(owners != self.client_id))
            mine.evicted_misses += int(np.count_nonzero(cache.evicted_many(miss_pages)))

        # Data-level hit accounting (§3.3): an object is served from
        # the cache when its page was prefetched.  Every object page is
        # in the covering set ``pages``, which the index returns sorted
        # and duplicate-free, so each object counts on exactly one slot.
        if n_hits == 0:
            objects_hit = 0
        else:
            if work.objects_on_page is None:
                object_pages = page_table.page_ids_of_objects(result.object_ids)
                work.objects_on_page = np.bincount(
                    np.searchsorted(pages, object_pages), minlength=pages.size
                )
            objects_hit = int(work.objects_on_page[hit_mask].sum())

        # -- window -----------------------------------------------------------------
        window = self.sequence.window_ratio * work.cold

        # -- predict, then prefetch ---------------------------------------------------
        prediction_cost = build_cost = 0.0
        prefetch_pages = 0
        prefetch_seconds = 0.0
        gap_pages_used = 0
        n_candidates = 0
        breaker = self._breaker
        if breaker is not None and not breaker.allow_prefetch():
            # Open breaker: this client is degraded to demand paging.
            # The prefetcher is bypassed entirely -- no observation, no
            # prediction cost, no plan -- so a misbehaving prefetch path
            # cannot keep hurting the client it already failed.
            mine.degraded_ticks += 1
        else:
            if work.prediction_cost is None:
                self._fill_prediction(work)
            prediction_cost, build_cost = work.prediction_cost, work.build_cost
            budget = window - prediction_cost

            tier_mark = self._tier_mark()
            try:
                # Prediction I/O first (SCOUT-OPT gap traversal, §6.3).
                for page in work.gap_pages:
                    if budget <= 0:
                        break
                    gap_pages_used += 1
                    if page in cache:
                        continue
                    cost = disk.read_pages([page])
                    cost += disk.verify_delivery([page], page_table)
                    budget -= cost
                    prefetch_seconds += cost
                    cache.insert(page, self.client_id)

                # Execute the plan within the remaining window.  Group
                # members enter with identical budgets (pure inputs), so
                # the leader's planned/not-planned decision is every
                # member's decision; each member still spends its own
                # budget against its own view of the shared cache,
                # consuming its own prefix of the shared probe streams.
                if budget > 0:
                    if work.streams is None:
                        self._fill_plan(work)
                    plan_pages, plan_seconds = engine._execute_plan(
                        work.targets, query, cache, disk, budget, self.client_id, work.streams
                    )
                    prefetch_pages += plan_pages
                    prefetch_seconds += plan_seconds
                prefetch_failed = False
            except ReadFailure as failure:
                # The failing batch never reached the cache; account the
                # partial work done before it (gap reads above, plus the
                # plan executor's prior_* enrichment) and the doomed
                # attempts' charged time, and abandon the rest of this
                # window.
                prefetch_pages += failure.prior_pages
                # Left to right, so the float sum the goldens pin holds.
                prefetch_seconds = prefetch_seconds + failure.prior_seconds + failure.seconds
                prefetch_failed = True
            self._tier_collect(tier_mark)
            if breaker is not None:
                if prefetch_failed:
                    breaker.record_failure()
                    mine.breaker_opens = breaker.opens
                else:
                    breaker.record_success()

            if work.n_candidates is None:
                work.n_candidates = getattr(self.prefetcher, "n_candidates", 0)
            n_candidates = work.n_candidates

        record = QueryRecord(
            index=self._cursor,
            pages_needed=len(pages),
            pages_hit=n_hits,
            objects_needed=result.n_objects,
            objects_hit=objects_hit,
            residual_seconds=residual,
            cold_seconds=work.cold,
            window_seconds=window,
            prediction_seconds=prediction_cost,
            graph_build_seconds=build_cost,
            prefetch_pages=prefetch_pages,
            prefetch_seconds=prefetch_seconds,
            gap_io_pages=gap_pages_used,
            n_result_objects=result.n_objects,
            n_candidates=n_candidates,
        )
        self.metrics.records.append(record)
        self._cursor += 1
        return record
