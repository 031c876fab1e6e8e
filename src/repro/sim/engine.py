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

import math
from dataclasses import dataclass
from itertools import compress, islice
from operator import not_

import numpy as np

from repro.baselines.base import ObservedQuery, Prefetcher, PrefetchTarget
from repro.index.base import SpatialIndex, region_corners
from repro.sim.metrics import ClientMetrics, QueryRecord, SequenceMetrics
from repro.storage.cache import PrefetchCache
from repro.storage.disk import DiskModel
from repro.storage.faults import CircuitBreaker, FaultPlan, FaultyDiskModel, ReadFailure
from repro.storage.sharded import ShardedCache, ShardSpec, make_sharded_cache
from repro.storage.tiered import StorageSpec, TieredStore
from repro.workload.sequence import QuerySequence

__all__ = ["QuerySession", "SimulationConfig", "SimulationEngine", "walk_results"]

#: Regions a probe stream resolves per ``pages_for_regions`` pass.
PROBE_CHUNK = 8

#: Fraction of the current region side each incremental step advances
#: along the extrapolated axis (overlapping regions re-hit cached pages
#: at no cost, §5.1).
INCREMENTAL_ADVANCE_FRACTION = 0.6


class _SharedProbeStream:
    """Memoized per-region page lists of one target's probe boxes.

    Plan execution consumes one incremental region at a time (budget
    spending decides when to stop), but the regions themselves do not
    depend on probe results -- so the stream resolves them a chunk
    (:data:`PROBE_CHUNK` regions) ahead, answering all of the chunk's
    page lookups in one vectorized
    :meth:`~repro.index.base.SpatialIndex.pages_for_regions` pass.
    ``regions`` is anything that method takes and that slices: packed
    ``(n, 2, 3)`` corners -- an incremental schedule's, or the
    position-only baselines' concentric boxes (no ``AABB`` is ever
    built for either) -- or an explicit ``AABB`` tuple (Hilbert's grid
    cells).  Per-region results are identical to one-at-a-time calls; a
    partially consumed chunk merely wasted some (cheap, vectorized)
    lookahead.

    Sessions replaying one plan tape (see :mod:`repro.sim.serve`)
    execute the *same* plan against different per-client budgets and
    cache states: each reads a prefix of the target's probe sequence
    by position (:meth:`get`), the prefix length depending on its own
    spending.  Resolved chunks are memoized as lists of plain ints, so
    the walk pays for each index lookup and each conversion once while
    every session sees the identical per-region page sets it would have
    computed alone (probe resolution is pure: region in, pages out).  A
    query stepped alone is the one-consumer case of the same schedule.
    A stream that one reader reads once -- a tape that only one session
    replays -- is made :meth:`compact` before it resolves: it keeps the
    pass's read-only page arrays and lists a region per read, since a
    list's boxed ints take ~4.5x the array's bytes and a tape holds its
    first chunks for the whole run.
    """

    def __init__(self, index, regions) -> None:
        self._index = index
        self._regions = regions
        #: Per resolved region: its pages as plain ints (a page array when compact).
        self._resolved: list = []
        #: What the plan loop reads directly: the resolved lists (none when compact).
        self._listed: list[list[int]] = self._resolved

    def compact(self) -> None:
        """Keep resolved regions as page arrays, each listed per read."""
        self._listed = []

    def get(self, position: int) -> list[int]:
        """The page ids of the region at ``position``.  Readers go in order and
        stop at the end, so only the first position of a chunk resolves it."""
        if position >= len(self._resolved):
            resolve_ahead(self._index, [self])
        pages = self._resolved[position]
        return pages if self._listed is self._resolved else pages.tolist()


def walk_results(index: SpatialIndex, sequence: QuerySequence) -> list:
    """Every query's index result, from one ``query_many`` over the walk:
    the one fetch of a walk's results, whoever reads them (DESIGN.md §6.1)."""
    return index.query_many([query.bounds for query in sequence.queries])


def resolve_ahead(index: SpatialIndex, streams: list[_SharedProbeStream]) -> None:
    """Resolve the next chunk of every stream in ONE ``pages_for_regions`` pass.

    ``get`` is the one-stream call; ``plan_tapes`` hands in every stream
    of its tapes, the tick (``step_tick``) every stream of the tick, a
    step that fills its own plan every stream of that plan.  Chunks
    concatenate as packed corners and the answers split back: each
    stream holds what it would have alone, each region's pages listed
    (kept as the pass's page array in a compact stream).
    """
    chunks = [s._regions[len(s._resolved) : len(s._resolved) + PROBE_CHUNK] for s in streams]
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
        pages = islice(answers, len(chunk))
        listed = stream._listed is stream._resolved
        stream._resolved.extend(map(np.ndarray.tolist, pages) if listed else pages)


@dataclass(slots=True, eq=False)
class _QueryBundle:
    """The pure (cache- and disk-independent) work of one query.

    :meth:`QuerySession.step_query` computes each field the first time
    a step needs it and reads it afterwards, so whoever comes first --
    the walk's plan tape (:meth:`QuerySession.plan_tape`), the tick's
    :meth:`QuerySession.fill_ahead`, or the step itself -- fills the
    record, and every session that replays a tape
    (:meth:`QuerySession.step_query_replay`) reads it.  A tape seeds
    each bundle with its plan (``targets``); a bundle observes exactly
    when it holds no plan.  Everything here
    is a pure function of the walk and the cursor when plans are
    shareable, so reading it is exactly the computation the replaying
    session would have done itself; all cache touches, disk reads and
    budget spending stay per-client.  ``None`` marks a field nobody has
    computed yet.  Records compare by identity: the tick looks for
    ``None`` among them (``step_tick``), one C-level scan.
    """

    cursor: int
    #: The walk result's pages as plain ints, listed once for every replay.
    pages: list[int] | None = None
    #: Result objects stored on each page of ``pages`` (aligned with it).
    objects_on_page: list[int] | None = None
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

    #: First incremental prefetch region side, as a fraction of the
    #: query side (§5.1: start small near the exit location E).
    incremental_start_fraction: float = 0.55

    #: Growth factor of successive incremental regions.
    incremental_growth: float = 1.25

    #: Largest incremental region side as a fraction of the query side.
    incremental_max_fraction: float = 1.5

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

    def build_disk(self, index: SpatialIndex) -> DiskModel | FaultyDiskModel | TieredStore:
        """The disk this config prescribes: bare, fault-wrapped, tiered.
        A store is bound to ``index``'s page table here, where it is built."""
        faults, storage = self.faults, self.storage
        if faults is None or not faults.active:
            disk: DiskModel | FaultyDiskModel = DiskModel()
        else:
            disk = FaultyDiskModel(faults)
        # An mmap store serves real bytes even with tiering off.
        if storage is None or (not storage.tiering_active and storage.backend == "ram"):
            return disk
        store = TieredStore(disk, storage)
        store.bind_page_table(index.page_table)
        return store

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
            advanced += region_side * INCREMENTAL_ADVANCE_FRACTION
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
                    side = math.cbrt(max(query.bounds.volume, 1e-30))
                    schedule = self._step_schedule(side)
                regions = self._incremental_boxes(target, *schedule)
            streams.append(_SharedProbeStream(self.index, regions))
        return streams

    def _execute_plan(
        self,
        targets: list[PrefetchTarget],
        streams: list[_SharedProbeStream],
        cache: PrefetchCache,
        disk: DiskModel,
        budget: float,
        owner: int | None = None,
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

        Each incremental region's missing pages are read as one batch,
        exactly like residual query I/O, every page paying its striped
        positioning; the batch that crosses the budget line is trimmed so
        the window is overshot by at most one page read.

        ``streams`` is one (possibly shared) :class:`_SharedProbeStream`
        per target (:meth:`_probe_streams`), read at this call's own
        position in each: a region already resolved is read off the
        stream's list, and only a position past it (or any position of a
        compact stream) asks ``get``.
        """
        if not targets:
            return 0, 0.0
        page_table = self.index.page_table
        # Per target: [share, stream, next position, done].
        states = [[t.share, stream, 0, False] for t, stream in zip(targets, streams)]

        pages_read = 0
        seconds = 0.0
        remaining = budget
        while remaining > 1e-12:
            active = [s for s in states if not s[3]]
            if not active:
                break
            total_share = sum(s[0] for s in active) or 1.0
            pass_budget = remaining
            advanced = False
            carry = 0.0
            for state in active:
                if remaining <= 0:
                    break
                share, stream, position, _ = state
                # get extends this list in place, so it stays current.
                listed, end = stream._listed, len(stream._regions)
                allotment = pass_budget * (share / total_share) + carry
                spent = 0.0
                while spent < allotment and remaining > 0:
                    if position == end:
                        state[3] = True
                        break
                    probe_pages = (
                        listed[position] if position < len(listed) else stream.get(position)
                    )
                    position += 1
                    state[2] = position
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
        results: list | None = None,
        tape: list | None = None,
    ) -> None:
        self.engine = engine
        self.sequence = sequence
        self.prefetcher = prefetcher
        config = engine.config
        self.cache = config.build_cache(engine.index) if cache is None else cache
        self.disk = config.build_disk(engine.index) if disk is None else disk
        self.client_id = client_id
        self.metrics = SequenceMetrics()
        #: This client's per-sequence records plus its shared-cache and
        #: fault attribution (DESIGN.md §6/§7); the serving report takes
        #: it as is.  Tier and shard totals stay on their layers.
        self.client_metrics = ClientMetrics(client_id=client_id, metrics=self.metrics)
        self._cursor = 0
        #: Whether this session has left its walk's plan tape (``tape_entry``).
        self._left_tape = False
        #: The walk's index results: a serving run's one fetch, or this one.
        self.results = walk_results(engine.index, sequence) if results is None else results
        #: The walk's plan tape, shared by every session on the walk
        #: (``tape_entry``); ``None`` steps untaped.
        self.tape = tape
        # Armed from the config's plan: every driver builds the disk it
        # passes in from this same config (``build_disk``).
        self._breaker: CircuitBreaker | None = None
        plan = config.faults
        if plan is not None and plan.breaker:
            self._breaker = CircuitBreaker(plan.breaker_threshold, plan.breaker_cooldown)
        prefetcher.begin_sequence()

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
        """A fresh session on the same sequence, results, tape, cache, disk and client id.

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
            results=self.results,
            tape=self.tape,
        )

    # -- stepping -------------------------------------------------------------------

    def run(self) -> SequenceMetrics:
        """Step the session to completion (the single-client experiment)."""
        while not self.done:
            self.step_query()
        return self.metrics

    def _fill_served(self, work: "_QueryBundle") -> None:
        """The index result's page list and its cold read time."""
        result = self.results[work.cursor]
        work.pages = np.asarray(result.page_ids, dtype=np.int64).ravel().tolist()
        work.cold = self.disk.cost_if_cold(work.pages)

    def _observe(self, cursor: int) -> None:
        """Let the prefetcher observe query ``cursor`` (bounds + result content)."""
        bounds, result = self.sequence.queries[cursor].bounds, self.results[cursor]
        self.prefetcher.observe(ObservedQuery(cursor, bounds, result.object_ids))

    def _fill_prediction(self, work: "_QueryBundle") -> None:
        """Observe the query (unless its bundle holds a plan); costs and gap list."""
        prefetcher = self.prefetcher
        if work.targets is None:
            self._observe(work.cursor)
        work.prediction_cost = prefetcher.prediction_cost_seconds()
        work.build_cost = prefetcher.graph_build_cost_seconds()
        # Plans are only taped for gap-free prefetchers, so every
        # session replaying a tape sees the same (empty) gap list.
        work.gap_pages = prefetcher.gap_io_pages()

    def _fill_plan(self, work: "_QueryBundle") -> None:
        """The plan's targets (the prefetcher's, unless the bundle holds them),
        one probe stream each."""
        if work.targets is None:
            work.targets = self.prefetcher.plan()
        work.streams = self.engine._probe_streams(work.targets, self.sequence.queries[work.cursor])

    def fill_ahead(self) -> "_QueryBundle":
        """The next query's pure work, filled ahead of its step (DESIGN.md §6.1)."""
        return self._fill(_QueryBundle(cursor=self._cursor))

    def _fill(self, work: "_QueryBundle") -> "_QueryBundle":
        """A query's pure work, as far as its step is certain to go: the
        served part always; the observation when the breaker is absent or
        closed (only this session's own step changes it); the plan when no
        gap I/O precedes it and the window outlasts the prediction cost.
        A bundle seeded with its plan observes nothing."""
        self._fill_served(work)
        if self._breaker is None or self._breaker.state == CircuitBreaker.CLOSED:
            self._fill_prediction(work)
            window = self.sequence.window_ratio * work.cold
            if not work.gap_pages and window - work.prediction_cost > 0:
                self._fill_plan(work)
        return work

    def plan_tape(self) -> list["_QueryBundle"]:
        """Every query's pure work in walk order: the walk's plan tape.

        The one plan-sharing mechanism (DESIGN.md §6.1, §8): when
        :func:`~repro.sim.serve.plans_shareable` holds -- a position-only
        fleet, the only one taped -- every session on the walk, this one
        included, steps through ``step_query_replay(tape[cursor])`` until
        its breaker first opens (:meth:`tape_entry`).  Each query is
        filled as by :meth:`fill_ahead`, its bundle seeded with its plan
        from one kernel pass over the walk (``plan_walk``).  Touches no
        cache, charges no disk time, resolves no probe stream.
        """
        plans = self.prefetcher.plan_walk([query.bounds for query in self.sequence.queries])
        return [self._fill(_QueryBundle(cursor, targets=plan)) for cursor, plan in enumerate(plans)]

    def step_query_capture(self) -> "_QueryBundle | None":
        """Advance one query alone; returns the record of its pure work.
        No production caller: kept for the tests and the tracer's spans."""
        if self.done:
            return None
        work = _QueryBundle(cursor=self._cursor)
        self.step_query(work)
        return work

    def tape_entry(self) -> "_QueryBundle | None":
        """This step's entry of its walk's plan tape; ``None`` steps untaped.

        A session replays its walk's tape from its first query until its
        breaker first opens, then leaves it for good (DESIGN.md §6.1, §7):
        from there its observe/plan work depends on which queries the
        breaker lets it prefetch, which no tape knows.  On leaving, its
        prefetcher observes every query it replayed; a breaker that has
        never opened never skipped one, so that history is exact.  A
        renewal is a new session and starts on the tape again.
        """
        if self.tape is None:
            return None
        breaker = self._breaker
        if breaker is None or not breaker.opens:
            return self.tape[self._cursor]
        if not self._left_tape:
            self._left_tape = True
            for cursor in range(self._cursor):
                self._observe(cursor)
        return None

    def step_query_replay(self, work: "_QueryBundle") -> QueryRecord | None:
        """Advance one query, reading a plan tape's entry (:meth:`tape_entry`).

        Observing and planning are skipped entirely, so this session's
        prefetcher lags the walk until the session leaves the tape, which
        observes what it skipped; cache touches, disk reads and budget
        spending all still happen here, per-client, in scheduler order.
        """
        return self.step_query(work)

    def step_query(self, work: "_QueryBundle | None" = None) -> QueryRecord | None:
        """Advance one whole query; its record, or ``None`` when done.

        ``work`` is the query's pure-work record when the tick
        filled one ahead or a plan tape holds one: the step
        reads what is filled and computes the rest through the same
        ``_fill_*`` definitions, so a query stepped alone is the case
        of a record nobody has filled.  A plan the step fills itself has
        every stream's first chunk resolved in one pass.
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

        # -- serve ------------------------------------------------------------------
        if work.pages is None:
            self._fill_served(work)
        result, pages = self.results[self._cursor], work.pages

        # Pages in the prefetch cache are hits; the rest is residual
        # I/O.  Result pages do NOT enter the prefetch cache -- the
        # cache holds prefetched data only ("percentage of data read
        # from the prefetch cache rather than from disk", §3.3).
        # touch never inserts, so membership is invariant across the
        # batch and the hit flags' complement is exactly the miss set.
        hit_mask = cache.touch_many(pages)
        n_hits = hit_mask.count(True)
        miss_pages = list(compress(pages, map(not_, hit_mask))) if n_hits else pages
        try:
            # No miss, no read: every disk layer answers an empty batch 0.0.
            residual = disk.read_pages(miss_pages) if miss_pages else 0.0
        except ReadFailure as failure:
            # The user is still owed the data: recover with a clean
            # demand re-read, charging both the doomed attempts and
            # the recovery read to residual time.  For accounting these
            # pages are failed reads, not ordinary misses: hits + misses
            # + failed_reads partitions the cache's touch counts.
            residual = failure.seconds + disk.recover_read(miss_pages)
            mine.failed_reads += len(miss_pages)
        else:
            mine.shared_misses += len(miss_pages)

        mine.shared_hits += n_hits
        if self.client_id is not None:
            # One pass: hits on pages another client (or nobody) tagged,
            # misses on pages the cache once held and evicted.
            foreign, evicted = cache.attribute_many(pages, hit_mask, self.client_id)
            mine.cross_client_hits += foreign
            mine.evicted_misses += evicted

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
                    np.searchsorted(pages, object_pages), minlength=len(pages)
                ).tolist()
            objects_hit = sum(compress(work.objects_on_page, hit_mask))

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

            try:
                # Prediction I/O first (SCOUT-OPT gap traversal, §6.3).
                for page in work.gap_pages:
                    if budget <= 0:
                        break
                    gap_pages_used += 1
                    if cache.contains_many([page])[0]:
                        continue
                    cost = disk.read_pages([page])
                    cost += disk.verify_delivery([page], page_table)
                    budget -= cost
                    prefetch_seconds += cost
                    cache.insert(page, self.client_id)

                # Execute the plan within the remaining window.  Sessions
                # replaying one tape enter with identical budgets (pure
                # inputs), so the tape's planned/not-planned decision is
                # every session's decision; each still spends its own
                # budget against its own view of the shared cache,
                # consuming its own prefix of the shared probe streams.
                if budget > 0:
                    if work.streams is None:
                        # The tick and the tape resolve their streams
                        # themselves; only a plan filled here is probed
                        # here, all of its streams in one pass.
                        self._fill_plan(work)
                        resolve_ahead(engine.index, work.streams)
                    plan_pages, plan_seconds = engine._execute_plan(
                        work.targets, work.streams, cache, disk, budget, self.client_id
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
            if breaker is not None:
                if prefetch_failed:
                    breaker.record_failure()
                    mine.breaker_opens = breaker.opens
                else:
                    breaker.record_success()

            if work.n_candidates is None:
                work.n_candidates = getattr(self.prefetcher, "n_candidates", 0)
            n_candidates = work.n_candidates

        n_objects = result.n_objects
        # Positional, in field order: matching fifteen keywords cost more
        # than the rest of the record on the hit path.
        record = QueryRecord(
            self._cursor,  # index
            len(pages),  # pages_needed
            n_hits,  # pages_hit
            n_objects,  # objects_needed
            objects_hit,
            residual,  # residual_seconds
            work.cold,  # cold_seconds
            window,  # window_seconds
            prediction_cost,  # prediction_seconds
            build_cost,  # graph_build_seconds
            prefetch_pages,
            prefetch_seconds,
            gap_pages_used,  # gap_io_pages
            n_objects,  # n_result_objects
            n_candidates,
        )
        self.metrics.records.append(record)
        self._cursor += 1
        return record
