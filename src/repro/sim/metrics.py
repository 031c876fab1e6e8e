"""Metrics collected by the simulator.

The paper's two headline numbers are the *cache hit rate* ("percentage
of data read from the prefetch cache rather than from disk", §3.3) and
the *speedup* of query response time versus no prefetching (§7.3).  The
analysis section adds a response-time breakdown into graph building,
prediction and residual I/O (Fig 14).

Hit rates are accounted at page granularity over queries 2..n of each
sequence -- the first query has no history, so every method starts
cold there (see DESIGN.md §5).

The serving layer adds two multi-client views (DESIGN.md §6):
:class:`ClientMetrics` wraps one client's per-sequence accounting with
its shared-cache contention counters, and :class:`ServeReport` pools a
whole :class:`~repro.sim.serve.ServingSimulator` run -- per-client and
aggregate hit rates plus the counters the cache, the tiered store and
the sharded cache keep for themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ADDITIVE_METRICS",
    "AggregateMetrics",
    "BASE_METRICS",
    "ClientMetrics",
    "QueryRecord",
    "SequenceMetrics",
    "ServeReport",
    "aggregate",
]


@dataclass(slots=True)
class QueryRecord:
    """Accounting of one query in a sequence."""

    index: int
    pages_needed: int
    pages_hit: int
    objects_needed: int
    objects_hit: int
    residual_seconds: float
    cold_seconds: float
    window_seconds: float
    prediction_seconds: float
    graph_build_seconds: float
    prefetch_pages: int
    prefetch_seconds: float
    gap_io_pages: int
    n_result_objects: int
    n_candidates: int

@dataclass
class SequenceMetrics:
    """Accounting of one full sequence run."""

    records: list[QueryRecord] = field(default_factory=list)

    # -- headline numbers ----------------------------------------------------------

    @property
    def eligible(self) -> list[QueryRecord]:
        """Records that count towards the hit rate (all but the first)."""
        return self.records[1:]

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of result *data* served from the prefetch cache.

        Object-weighted, following §3.3's definition ("percentage of
        data read from the prefetch cache rather than from disk"): an
        object counts as a hit when the page holding it was prefetched.
        """
        needed = sum(r.objects_needed for r in self.eligible)
        if needed == 0:
            return 0.0
        return sum(r.objects_hit for r in self.eligible) / needed

    @property
    def response_seconds(self) -> float:
        """Total response time: residual I/O plus uncovered prediction cost."""
        return sum(r.residual_seconds for r in self.records)

    @property
    def cold_seconds(self) -> float:
        """Total response time had nothing been prefetched."""
        return sum(r.cold_seconds for r in self.records)

    @property
    def speedup(self) -> float:
        """Response-time speedup vs no prefetching (cold / actual)."""
        response = self.response_seconds
        if response <= 0:
            return float("inf")
        return self.cold_seconds / response

    # -- breakdown (Fig 14) ---------------------------------------------------------

    @property
    def graph_build_seconds(self) -> float:
        """Total simulated graph-building time (Fig 14)."""
        return sum(r.graph_build_seconds for r in self.records)

    @property
    def prediction_seconds(self) -> float:
        """Total simulated prediction time, graph build included."""
        return sum(r.prediction_seconds for r in self.records)

def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _floats(values) -> list[float]:
    return [float(v) for v in values]


#: The base metric keys: ``(name, cast)`` of every field every
#: :class:`AggregateMetrics` carries, in emission order.  Every stored
#: record holds all of them (one missing makes the record stale); the
#: value is stored as computed and read back through ``cast``, and an
#: infinite ``speedup`` is stored as ``null``.
#: :func:`repro.sim.results.metrics_to_dict` / ``metrics_from_dict``
#: iterate this table and :data:`ADDITIVE_METRICS` after it.
BASE_METRICS: tuple[tuple[str, type], ...] = (
    ("n_sequences", int),
    ("cache_hit_rate", float),
    ("hit_rate_std", float),
    ("speedup", float),
    ("response_seconds", float),
    ("cold_seconds", float),
    ("graph_build_seconds", float),
    ("prediction_seconds", float),
    ("per_sequence_hit_rates", _floats),
)


#: The additive metric keys: ``(name, cast, gate)`` in *emission order*
#: (store lines are written with unsorted ``json.dumps``, so the order
#: is part of the byte-level store format).  ``gate`` names the
#: :class:`ServeReport` flag that must be set for the key to be carried
#: into the aggregate (``None``: every serving cell).  An unset key is
#: ``None`` on :class:`AggregateMetrics` and omitted from persisted
#: records, which is what keeps pre-existing stores byte-identical as
#: layers are added.  :meth:`ServeReport.to_aggregate` and
#: :func:`repro.sim.results.metrics_to_dict` / ``metrics_from_dict``
#: all iterate this table; a new layer's counters are new rows here.
ADDITIVE_METRICS: tuple[tuple[str, type, str | None], ...] = (
    ("cross_client_hits", int, None),
    ("evicted_misses", int, None),
    ("failed_reads", int, "faults_active"),
    ("degraded_ticks", int, "faults_active"),
    ("breaker_opens", int, "faults_active"),
    ("tier_hits", int, "tiers_active"),
    ("miss_path_hits", int, "tiers_active"),
    ("tier_fills", int, "tiers_active"),
    ("shard_requests", _ints, "shards_active"),
    ("shard_hits", _ints, "shards_active"),
    ("shard_rebalances", int, "shards_active"),
    ("shard_pages_moved", int, "shards_active"),
)


@dataclass
class AggregateMetrics:
    """Metrics pooled over several sequences of one experiment cell.

    The trailing :data:`ADDITIVE_METRICS` fields only apply to serving
    cells (many clients on one shared cache); single-client cells leave
    them ``None`` and persist without them, so pre-serving stored
    records stay byte-identical.
    """

    n_sequences: int
    cache_hit_rate: float
    hit_rate_std: float
    speedup: float
    response_seconds: float
    cold_seconds: float
    graph_build_seconds: float
    prediction_seconds: float
    per_sequence_hit_rates: list[float]
    cross_client_hits: int | None = None
    evicted_misses: int | None = None
    #: Fault-plane counters (DESIGN.md §7; active fault plan only).
    failed_reads: int | None = None
    degraded_ticks: int | None = None
    breaker_opens: int | None = None
    #: Tiered-storage counters (DESIGN.md §9; active storage tier only).
    tier_hits: int | None = None
    miss_path_hits: int | None = None
    tier_fills: int | None = None
    #: Sharded-cache counters (DESIGN.md §10; ``K > 1`` only).
    #: ``shard_requests``/``shard_hits`` are per-shard, in shard order,
    #: and exactly partition the shared cache's touch totals.
    shard_requests: list[int] | None = None
    shard_hits: list[int] | None = None
    shard_rebalances: int | None = None
    shard_pages_moved: int | None = None

    def __str__(self) -> str:
        return (
            f"hit-rate {100 * self.cache_hit_rate:.1f}% "
            f"(±{100 * self.hit_rate_std:.1f}) speedup {self.speedup:.2f}x"
        )


@dataclass
class ClientMetrics:
    """One client's accounting in a multi-client serving run.

    ``metrics`` is the client's ordinary :class:`SequenceMetrics`; the
    extra counters attribute its shared-cache traffic.  ``shared_hits``
    and ``shared_misses`` are this client's page touches on the shared
    cache (their sum over all clients equals the cache's own totals --
    a property-tested invariant).  ``cross_client_hits`` are hits on
    pages *another* client prefetched; ``evicted_misses`` are misses on
    pages that had been prefetched but were evicted before use -- the
    contention signature of an undersized shared cache.

    Every :class:`~repro.sim.engine.QuerySession` owns one and accrues
    into it as it steps; the serving report takes them as they are.
    Only what is per-client by nature lives here: a layer's own totals
    (tier and shard counters) are read off the layer (DESIGN.md §6).
    ``client_id`` is ``None`` for a session run outside the serving
    layer (private cache, nothing to attribute).
    """

    client_id: int | None
    metrics: SequenceMetrics
    shared_hits: int = 0
    shared_misses: int = 0
    cross_client_hits: int = 0
    evicted_misses: int = 0
    #: Fault-plane accounting (zero without an active fault plan):
    #: serve-path pages whose read exhausted its retries (under faults,
    #: ``shared_misses + failed_reads`` partitions this client's share
    #: of the cache's miss count), queries served degraded to demand
    #: paging behind an open breaker, and breaker trips.
    failed_reads: int = 0
    degraded_ticks: int = 0
    breaker_opens: int = 0

@dataclass
class ServeReport:
    """What one :class:`~repro.sim.serve.ServingSimulator` run measured.

    Pools the per-client metrics with the counters the shared cache,
    the tiered store and the sharded cache keep themselves, read off
    the layers the run built.
    ``n_ticks`` is how many ticks the run took, either scheduler
    (staggered clients idle through their first ticks).
    """

    clients: list[ClientMetrics]
    capacity_pages: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    cache_insertions: int
    n_ticks: int
    #: Whether the run's disk carried a fault plan.  Gates the fault
    #: counters' persistence: fault-free serving cells keep serializing
    #: without them, so existing stored records stay byte-identical.
    faults_active: bool = False
    #: Whether the run's disk carried an active storage tier; gates the
    #: tier counters' persistence the same way (DESIGN.md §9).
    tiers_active: bool = False
    #: The store's own tier counters (zero without a tiered store):
    #: requests absorbed by the storage-side tier cache and by the
    #: miss-path mechanisms below it, and pages pulled from the
    #: backing store.
    tier_hits: int = 0
    miss_path_hits: int = 0
    tier_fills: int = 0
    #: Whether the run's cache was sharded (``K > 1``); gates the shard
    #: counters' persistence the same way (DESIGN.md §10).
    shards_active: bool = False
    #: Per-shard demand touches and hits, in shard order (``None`` when
    #: unsharded).  Sums equal ``cache_hits + cache_misses`` and
    #: ``cache_hits``: the shards exactly partition the request stream.
    shard_requests: list[int] | None = None
    shard_hits: list[int] | None = None
    #: Rebalancer activity over the run (``None`` when unsharded).
    shard_rebalances: int | None = None
    shard_pages_moved: int | None = None

    @property
    def aggregate_hit_rate(self) -> float:
        """Object-weighted hit rate pooled over every client."""
        return self.to_aggregate().cache_hit_rate

    @property
    def cross_client_hits(self) -> int:
        """Hits served by a page some *other* client prefetched."""
        return sum(client.cross_client_hits for client in self.clients)

    @property
    def evicted_misses(self) -> int:
        """Misses on pages prefetched but evicted before use."""
        return sum(client.evicted_misses for client in self.clients)

    @property
    def failed_reads(self) -> int:
        """Serve-path pages whose read exhausted its retries."""
        return sum(client.failed_reads for client in self.clients)

    @property
    def degraded_ticks(self) -> int:
        """Queries served in demand-paging degradation, fleet-wide."""
        return sum(client.degraded_ticks for client in self.clients)

    @property
    def breaker_opens(self) -> int:
        """Circuit-breaker trips across the fleet."""
        return sum(client.breaker_opens for client in self.clients)

    def to_aggregate(self) -> AggregateMetrics:
        """Pool the clients exactly like sequences of one experiment cell.

        Each client counts as one "sequence" of the aggregate, so
        ``per_sequence_hit_rates`` carries the per-client hit rates into
        the result store unchanged -- serving cells persist through the
        same schema as single-client cells.  The contention counters
        (``cross_client_hits``, ``evicted_misses``) ride along as
        additive keys, so a stored serving cell keeps the numbers that
        distinguish sharing wins from eviction pressure; each layer's
        counters join them when its ``*_active`` gate is set.
        """
        return replace(
            aggregate([client.metrics for client in self.clients]),
            **{
                name: getattr(self, name)
                for name, _, gate in ADDITIVE_METRICS
                if gate is None or getattr(self, gate)
            },
        )

    def __str__(self) -> str:
        return (
            f"{len(self.clients)} clients: hit-rate {100 * self.aggregate_hit_rate:.1f}% "
            f"cross-client {self.cross_client_hits} evicted-misses {self.evicted_misses}"
        )


def aggregate(sequences: list[SequenceMetrics]) -> AggregateMetrics:
    """Pool per-sequence metrics into one experiment-cell result.

    The hit rate is page-weighted across sequences (total hits over
    total requests); the speedup is the ratio of pooled times, matching
    how a wall-clock experiment would measure both.
    """
    if not sequences:
        raise ValueError("aggregate() needs at least one sequence")
    needed = sum(r.objects_needed for s in sequences for r in s.eligible)
    hit = sum(r.objects_hit for s in sequences for r in s.eligible)
    response = sum(s.response_seconds for s in sequences)
    cold = sum(s.cold_seconds for s in sequences)
    rates = [s.cache_hit_rate for s in sequences]
    return AggregateMetrics(
        n_sequences=len(sequences),
        cache_hit_rate=hit / needed if needed else 0.0,
        hit_rate_std=float(np.std(rates)) if len(rates) > 1 else 0.0,
        speedup=cold / response if response > 0 else float("inf"),
        response_seconds=response,
        cold_seconds=cold,
        graph_build_seconds=sum(s.graph_build_seconds for s in sequences),
        prediction_seconds=sum(s.prediction_seconds for s in sequences),
        per_sequence_hit_rates=rates,
    )
