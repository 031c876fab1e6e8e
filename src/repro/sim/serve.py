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
* scheduling is deterministic round-robin at query granularity: each
  tick, every live (started, unfinished) client executes its next query
  in client order.  ``start_tick`` staggering delays arrivals.

Two schedulers produce **bit-identical reports** (pinned by
``tests/test_serving_lockstep.py``):

``round_robin`` (default)
    the reference loop above -- one client's full query at a time; the
    oracle the tests compare against;
``lockstep``
    the vectorized plane sweeps run on.  Each tick batches the pure
    work before anyone steps: one ``query_many`` pass resolves the
    queries, each plan owner fills its record as far as its step is
    certain to go (:meth:`~repro.sim.engine.QuerySession.fill_ahead`),
    one ``pages_for_regions`` pass resolves the first chunk of every
    probe stream of the tick, and -- when every client runs the same
    position-only prefetcher -- clients that share a hot sequence read
    their group leader's record instead of recomputing it.  Only *pure*
    work is ever hoisted or shared; every cache touch, disk read and
    budget decision still executes in exact client order, which is why
    the reports match bit for bit.

With one client the shared cache and disk degenerate to private ones,
so ``ServingSimulator`` over a single session is bit-identical to
:meth:`~repro.sim.engine.SimulationEngine.run` -- pinned by the
property suite in ``tests/test_serving.py``.
"""

from __future__ import annotations

from typing import Sequence

from repro.baselines.base import PositionOnlyPrefetcher, Prefetcher
from repro.index.base import SpatialIndex
from repro.sim.engine import QuerySession, SimulationConfig, SimulationEngine, resolve_ahead
from repro.sim.metrics import ServeReport
from repro.storage.faults import FaultPlan
from repro.workload.multiclient import ClientWorkload

__all__ = ["ServingSimulator", "plans_shareable"]


def plans_shareable(prefetchers: Sequence[Prefetcher], faults: FaultPlan | None) -> bool:
    """Whether sessions may read one another's pure observe/plan work.

    The one eligibility rule of plan sharing, called by the lockstep
    scheduler (leader/follower groups within a tick) and by the serving
    daemon (per-walk plan tapes across time, DESIGN.md §8).  Sharing
    replays another session's observe/plan work, so it is only sound
    when that work is a pure function of the observed sequence:

    * every session runs a position-only prefetcher (plans derive from
      observed centers alone, and no gap I/O whose pulls could depend
      on cache state) of the same configuration (type and name -- the
      name encodes the parameters), so identical observations imply
      identical predictions;
    * no fault plan that can fire: per-client breaker state diverges
      under failures, so one session's observe/plan work is no longer a
      pure replay of another's.  (Every driver still reads the shared
      faulty disk in exact request order, so reports and the fault RNG
      draw sequence stay bit-identical without sharing.)
    """
    if faults is not None and faults.active:
        return False
    first = prefetchers[0]
    if not isinstance(first, PositionOnlyPrefetcher):
        return False
    return all(
        type(p) is type(first) and p.name == first.name for p in prefetchers
    )


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
        lockstep: bool = False,
    ) -> ServeReport:
        """Serve every client to completion; returns the pooled report.

        ``prefetchers`` is parallel to ``clients``: each client owns its
        prefetcher instance (prediction state is per-user), while cache
        and disk are shared.  Deterministic: same clients + prefetchers
        in, same report out, regardless of wall-clock or scheduler.

        ``lockstep`` selects the vectorized scheduler (sweeps always
        do, see :func:`repro.sim.runner.run_serving_cell`); both
        schedulers serve from the same cache and the report is
        bit-identical either way.  Lockstep shares leader/follower
        plans whenever that is sound: every client on the same
        position-only prefetcher and no fault that can fire.
        """
        clients = list(clients)
        if not clients:
            raise ValueError("serving needs at least one client")
        if len(prefetchers) != len(clients):
            raise ValueError(
                f"got {len(prefetchers)} prefetchers for {len(clients)} clients; "
                "each client needs its own instance"
            )
        # The report gates read the config, not the built objects: an
        # inert spec builds no layer (``SimulationConfig.build_disk``)
        # but still flags its counters into stored records.
        faulty = self.config.faults is not None
        # A storage tier never perturbs the pure observe/plan work (tier
        # state only decides which backing reads are charged), so plan
        # sharing stays available; the report just flags the tier so the
        # additive counters persist (DESIGN.md §9).
        tiered = self.config.storage is not None and self.config.storage.tiering_active
        # A sharded cache keeps plan sharing available for the same
        # reason: routing and rebalancing only redistribute which shard
        # absorbs a touch, and both schedulers feed the cache identical
        # batch sequences (DESIGN.md §10).
        sharded = self.config.shards is not None and self.config.shards.sharding_active
        cache = self.config.build_cache(self.index)
        disk = self.config.build_disk()
        sessions = [
            QuerySession(
                self.engine,
                client.sequence,
                prefetcher,
                cache=cache,
                disk=disk,
                client_id=client.client_id,
            )
            for client, prefetcher in zip(clients, prefetchers)
        ]

        if lockstep:
            n_ticks = self._run_lockstep(clients, sessions, prefetchers)
        else:
            n_ticks = self._run_round_robin(clients, sessions)

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
            shard_requests=(
                [shard.hits + shard.misses for shard in cache.shards]
                if sharded
                else None
            ),
            shard_hits=(
                [shard.hits for shard in cache.shards] if sharded else None
            ),
            shard_rebalances=cache.rebalance_events if sharded else None,
            shard_pages_moved=cache.pages_moved if sharded else None,
        )

    # -- schedulers -----------------------------------------------------------

    def _run_round_robin(self, clients, sessions) -> int:
        """The reference loop: one client's full query at a time."""
        tick = 0
        while True:
            advanced = False
            waiting = False
            for client, session in zip(clients, sessions):
                if session.done:
                    continue
                if client.start_tick > tick:
                    waiting = True
                    continue
                session.step_query()
                advanced = True
            if not advanced and not waiting:
                break
            tick += 1
        return tick

    def _run_lockstep(self, clients, sessions, prefetchers) -> int:
        """The vectorized plane: batch the tick's pure work, then step.

        Per tick: (1) resolve every plan owner's query in one batched
        ``query_many`` pass; (2) every owner fills its query's pure work
        ahead of its step (``fill_ahead``) and ONE ``pages_for_regions``
        pass resolves the first chunk of every probe stream of the
        tick; (3) step every active session's full query *in client
        order* -- all cache and disk mutations happen here, exactly as
        round-robin interleaves them.  A plan owner is a client on its
        own record or the leader of a plan-sharing group (same sequence
        object, same start tick, eligible prefetchers); followers read
        the leader's record: every active member advances exactly one
        query per tick, so members stay bitwise-identical in their pure
        computations for the whole run and the record the leader filled
        *is* the follower's own computation.
        """
        # Static sharing groups: same sequence object + same start tick
        # (hotspot workloads share sequence objects across followers).
        leader_of = list(range(len(clients)))
        if plans_shareable(prefetchers, self.config.faults):
            first_with_key: dict[tuple[int, int], int] = {}
            for i, client in enumerate(clients):
                key = (id(client.sequence), client.start_tick)
                leader_of[i] = first_with_key.setdefault(key, i)

        tick = 0
        while True:
            active = [
                i
                for i, (client, session) in enumerate(zip(clients, sessions))
                if not session.done and client.start_tick <= tick
            ]
            waiting = any(
                not session.done and client.start_tick > tick
                for client, session in zip(clients, sessions)
            )
            if not active and not waiting:
                break

            # The tick's pure work, batched over the distinct queries (a
            # follower's query is its leader's query).
            owners = [i for i in active if leader_of[i] == i]
            owned = [sessions[i] for i in owners]
            bounds = [s.sequence.queries[s.query_index].bounds for s in owned]
            bundles = {
                i: session.fill_ahead(result)
                for i, session, result in zip(owners, owned, self.index.query_many(bounds))
            }
            streams = [s for work in bundles.values() for s in work.streams or ()]
            resolve_ahead(self.index, streams)

            for i in active:
                if leader_of[i] == i:
                    sessions[i].step_query(None, bundles[i])
                else:
                    sessions[i].step_query_replay(bundles[leader_of[i]])
            tick += 1
        return tick
