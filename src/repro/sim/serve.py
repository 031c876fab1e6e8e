"""Multi-client serving simulator: N sessions, one cache, one disk.

The paper's experiments run one interactive client against a private
prefetch cache.  A deployment serves *many* concurrent users whose
prefetchers share the cache and the disk -- the shared-resource
pressure that decides whether prefetching still pays off at scale
(DESIGN.md §6).  :class:`ServingSimulator` models exactly that:

* every client is a :class:`~repro.sim.engine.QuerySession` -- the same
  ``step_query`` the single-client engine calls -- so serving changes
  *scheduling*, never per-query semantics;
* all sessions share one prefetch cache and one
  :class:`~repro.storage.disk.DiskModel`; prefetched pages are
  owner-tagged, so hits can be attributed across clients and misses to
  eviction pressure;
* scheduling is deterministic at query granularity: each tick, every
  live (started, unfinished) client executes its next query in client
  order.  ``start_tick`` staggering delays arrivals.

One scheduler steps those ticks, one :func:`step_tick` each -- the tick
the serving daemon runs too.  Each walk's index results are fetched
once per run; when :func:`plans_shareable` holds, each walk is taped
once before anything steps (:func:`plan_tapes`, as the daemon tapes
its pool at boot), every session carries its walk's tape as it carries
its results, and every tick replays it for each session whose breaker
has never opened; every other step has its pure work filled ahead by
the tick (``fill_ahead``, one ``pages_for_regions`` pass).  Only *pure* work is ever hoisted or
shared; every cache touch, disk read and budget decision still executes
in exact client order.  The proof is a test oracle that shares none of
that machinery, ``tests/oracles/serving.py::RoundRobinSimulator`` (one
client's full query at a time): its reports equal this scheduler's bit
for bit (``tests/test_serving_lockstep.py``).

With one client the shared cache and disk degenerate to private ones,
so ``ServingSimulator`` over a single session is bit-identical to
:meth:`~repro.sim.engine.SimulationEngine.run` -- pinned by the
property suite in ``tests/test_serving.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Sequence

from repro.baselines.base import PositionOnlyPrefetcher, Prefetcher
from repro.index.base import SpatialIndex
from repro.sim.engine import QuerySession, SimulationConfig, SimulationEngine
from repro.sim.engine import resolve_ahead, walk_results
from repro.sim.metrics import QueryRecord, ServeReport
from repro.storage.tiered import TierStats
from repro.workload.multiclient import ClientWorkload

__all__ = ["ServingSimulator", "plan_tapes", "plans_shareable", "step_tick"]


def plans_shareable(prefetchers: Sequence[Prefetcher]) -> bool:
    """Whether sessions may read one another's pure observe/plan work.

    The one rule of plan sharing, for the simulator's scheduler and the
    serving daemon alike: when it holds, every walk is taped and each
    session replays its walk's plan tape (DESIGN.md §6.1, §8);
    otherwise nothing is taped.  That is sound when every session runs
    a position-only prefetcher (plans derive from observed centers
    alone, and no gap I/O whose pulls could depend on cache state) of
    the same configuration (type and name -- the name encodes the
    parameters), so identical observations imply identical predictions.

    Faults do not enter the rule.  A session's observe/plan work departs
    from its walk's only where its circuit breaker first opens and
    starts skipping queries, so a session replays until then and steps
    untaped from there (:meth:`~repro.sim.engine.QuerySession.tape_entry`).
    Every driver reads the shared faulty disk in exact request order, so
    reports and the fault RNG draw sequence stay bit-identical.
    """
    first = prefetchers[0]
    if not isinstance(first, PositionOnlyPrefetcher):
        return False
    return all(type(p) is type(first) and p.name == first.name for p in prefetchers)


def plan_tapes(
    index: SpatialIndex, sessions: Sequence[QuerySession], lone: Sequence[bool] = ()
) -> list[list]:
    """Each session's walk tape; one probe pass resolves all their first chunks.

    ``lone`` flags, per session, a tape that no other session will
    replay; its probe streams are compact (a region listed per read,
    never kept as a list), the others are listed once for every reader.
    """
    tapes = [session.plan_tape() for session in sessions]
    streams = [stream for tape in tapes for work in tape for stream in work.streams or ()]
    for tape, alone in zip(tapes, lone):
        if alone:
            for work in tape:
                for stream in work.streams or ():
                    stream.compact()
    resolve_ahead(index, streams)
    return tapes


def step_tick(
    index: SpatialIndex, sessions: list[QuerySession]
) -> Iterator[tuple[QueryRecord, bool]]:
    """Step each session once, in list order, yielding its record and
    whether it replayed its walk's tape.

    The one tick of the shared-cache plane (DESIGN.md §6.1, §8), fed the
    active clients by the simulator's scheduler and the admitted jobs by the
    daemon; a session appears at most once.  A session on its tape
    (:meth:`~repro.sim.engine.QuerySession.tape_entry`) replays it; the
    others are filled ahead (``fill_ahead`` each) and share one
    ``resolve_ahead``, made only when there is one.  A step that raises
    ends the tick: the sessions behind it do not advance.
    """
    taped = [session.tape_entry() for session in sessions]
    bundles = []
    if None in taped:
        bundles = [session.fill_ahead() for session, work in zip(sessions, taped) if work is None]
        resolve_ahead(index, [stream for work in bundles for stream in work.streams or ()])
    filled = iter(bundles)
    for session, work in zip(sessions, taped):
        if work is None:
            yield session.step_query(next(filled)), False
        else:
            yield session.step_query_replay(work), True


class ServingSimulator:
    """Multiplexes client sessions over one shared cache and disk."""

    def __init__(self, index: SpatialIndex, config: SimulationConfig | None = None) -> None:
        self.index = index
        self.config = config or SimulationConfig()
        self.engine = SimulationEngine(index, self.config)

    def run(
        self,
        clients: Sequence[ClientWorkload],
        prefetchers: Sequence[Prefetcher],
        *,
        lockstep: bool = True,
    ) -> ServeReport:
        """Serve every client to completion; returns the pooled report.

        ``prefetchers`` is parallel to ``clients``: each client owns its
        prefetcher instance (prediction state is per-user), while cache
        and disk are shared.  Deterministic: same clients + prefetchers
        in, same report out, regardless of wall-clock.  Ticks replay
        per-walk plan tapes whenever :func:`plans_shareable` holds.

        ``lockstep=True`` is accepted for callers written when a second
        scheduler existed; any other value raises ``TypeError``, since
        the round-robin reference now lives in the tests.
        """
        if lockstep is not True:
            raise TypeError(
                f"lockstep={lockstep!r}: serving has one scheduler; the round-robin "
                "reference is tests.oracles.serving.RoundRobinSimulator"
            )
        clients = list(clients)
        if not clients:
            raise ValueError("serving needs at least one client")
        if len(prefetchers) != len(clients):
            raise ValueError(
                f"got {len(prefetchers)} prefetchers for {len(clients)} clients; "
                "each client needs its own instance"
            )
        # The report gates read the config, not the built objects: an inert
        # spec builds no layer but still flags its counters into stored
        # records.  Tiers and shards never perturb the pure observe/plan
        # work, so plans stay shareable under them (DESIGN.md §9, §10).
        faulty = self.config.faults is not None
        tiered = self.config.storage is not None and self.config.storage.tiering_active
        sharded = self.config.shards is not None and self.config.shards.sharding_active
        cache = self.config.build_cache(self.index)
        disk = self.config.build_disk(self.index)
        walks = {id(client.sequence): client.sequence for client in clients}
        results = {key: walk_results(self.index, walk) for key, walk in walks.items()}
        sessions = [
            QuerySession(
                self.engine,
                client.sequence,
                prefetcher,
                cache=cache,
                disk=disk,
                client_id=client.client_id,
                results=results[id(client.sequence)],
            )
            for client, prefetcher in zip(clients, prefetchers)
        ]

        n_ticks = self._schedule(clients, sessions, prefetchers)

        # Each layer counter has one owner: the tier and shard totals are
        # read off the store and cache this run built, like the cache's
        # hits (an inactive layer's counters are zero).
        tier_stats = disk.tier_stats if tiered else TierStats()
        return ServeReport(
            clients=[session.client_metrics for session in sessions],
            capacity_pages=cache.capacity_pages,
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_evictions=cache.evictions,
            cache_insertions=cache.insertions,
            n_ticks=n_ticks,
            faults_active=faulty,
            tiers_active=tiered,
            shards_active=sharded,
            shard_requests=[s.hits + s.misses for s in cache.shards] if sharded else None,
            shard_hits=[shard.hits for shard in cache.shards] if sharded else None,
            shard_rebalances=cache.rebalance_events if sharded else None,
            shard_pages_moved=cache.pages_moved if sharded else None,
            tier_hits=tier_stats.tier_hits,
            miss_path_hits=tier_stats.mechanism_hits,
            tier_fills=tier_stats.backing_pages,
        )

    # -- the scheduler --------------------------------------------------------

    def _schedule(self, clients, sessions, prefetchers) -> int:
        """One :func:`step_tick` per tick, in client order; returns the tick count.

        With shareable plans, each distinct sequence object is taped up
        front from its first session, all in one :func:`plan_tapes`, and
        every session on it carries that tape; a walk only one client
        steps gets a compact tape.  The live sessions -- ``(start tick,
        session)`` -- drop out once finished; a tick where only
        staggered clients wait still counts.
        """
        if plans_shareable(prefetchers):
            first = {id(session.sequence): session for session in reversed(sessions)}
            readers = Counter(id(session.sequence) for session in sessions)
            lone = [readers[walk] == 1 for walk in first]
            by_walk = dict(zip(first, plan_tapes(self.index, list(first.values()), lone)))
            for session in sessions:
                session.tape = by_walk[id(session.sequence)]
        live = [
            (client.start_tick, session)
            for client, session in zip(clients, sessions)
            if not session.done
        ]

        tick = 0
        while live:
            for _ in step_tick(self.index, [session for start, session in live if start <= tick]):
                pass
            tick += 1
            live = [entry for entry in live if not entry[1].done]
        return tick
