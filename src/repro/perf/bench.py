"""Perf-tracking harness behind ``scout-repro bench``.

Times the system's hot paths and writes one ``BENCH_<rev>.json`` per
git revision, so the repository accumulates a measured performance
trajectory alongside its correctness tests.  Seven suites:

* **index_build** -- bulk-load time of the three index types, plus the
  scalar-path FLAT build (whose adjacency preprocessing runs the
  pre-vectorization one-probe-at-a-time traversal) as the baseline;
* **region_query** -- region-probe throughput of the packed R-tree
  directory: the scalar reference path, the vectorized single-region
  path, and the batched ``pages_for_regions`` path that the simulator's
  plan execution actually uses;
* **prediction** -- SCOUT's per-query prediction wall time
  (observe + plan over a guided sequence) and the crossing-extraction
  kernel, vectorized vs the scalar reference;
* **fig13a** -- wall-clock of a small Fig-13 panel-a sweep (jobs=1),
  simulated once over the vectorized index and once over the scalar
  reference index, with the metrics of both runs required to be
  bit-identical;
* **serving** -- multi-client serving throughput: a Zipf-hotspot fleet
  stepped once by the reference round-robin scheduler and once by the
  vectorized lockstep scheduler, with both full serve reports required
  to be bit-identical before any timing counts;
* **sharded_serving** -- the hot-shard scale-out gain: a thrashing
  Zipf fleet resharded to K = 8 with rebalancing must beat the single
  cache on simulated throughput, gated by the ``sharded_hot_qps``
  budget floor; the suite pins its own workload size so the gate holds
  at every bench scale;
* **serving_daemon** -- end-to-end throughput of the real asyncio
  serving surface (:mod:`repro.serve`): an in-process daemon on an
  ephemeral port driven by the seeded open-loop load generator at a
  rate far above service capacity, so the achieved q/s measures the
  daemon's drain rate (protocol framing + admission queue + session
  stepping), gated by the ``serving_daemon_qps`` budget floor.

Every suite compares against the scalar reference implementations kept
in :mod:`repro.index.scalar_ref` and
:func:`repro.graph.traversal.region_crossings_reference`, so the
recorded speedups measure the vectorized hot path against the
pre-change baseline on the same machine and the same run.

The JSON schema (``BENCH_SCHEMA``) is documented in ROADMAP.md under
"Performance tracking"; :func:`check_budget` compares a report against
a checked-in floor file (``benchmarks/perf/budget.json``) and is what
CI uses to fail on throughput regressions.
"""

from __future__ import annotations

import json
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.baselines import EWMAPrefetcher
from repro.core import ScoutConfig, ScoutPrefetcher
from repro.datagen import make_neuron_tissue
from repro.geometry.aabb import AABB
from repro.graph.traversal import region_crossings, region_crossings_reference
from repro.index import FlatIndex, GridIndex, STRTree
from repro.index.scalar_ref import ScalarFlatIndex
from repro.sim import run_experiment
from repro.sim.engine import SimulationConfig
from repro.sim.serve import ServingSimulator
from repro.workload.multiclient import multiclient_sessions
from repro.workload.sequence import generate_sequences

__all__ = ["BENCH_SCHEMA", "BenchReport", "check_budget", "render_report", "run_bench"]

#: Bump when the report layout changes.
BENCH_SCHEMA = 1


@dataclass
class BenchReport:
    """One bench run: environment header plus per-suite results."""

    rev: str
    quick: bool
    results: dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict[str, Any]:
        return {
            "schema": BENCH_SCHEMA,
            "rev": self.rev,
            "quick": self.quick,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "results": self.results,
        }

    def write(self, out_dir: str | Path) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{self.rev}.json"
        path.write_text(json.dumps(self.to_record(), indent=2, sort_keys=True) + "\n")
        return path


def git_rev() -> str:
    """Short git revision of the working tree (``local`` when unknown)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "local"
    except (OSError, subprocess.SubprocessError):
        return "local"


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best wall time of ``repeats`` runs (classic min-of-n timing)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _probe_regions(dataset, n_probes: int, seed: int = 23) -> list[AABB]:
    """A realistic probe mix: prefetch-region-sized boxes on the data."""
    rng = np.random.default_rng(seed)
    probes = []
    for _ in range(n_probes):
        anchor = dataset.centroids[rng.integers(dataset.n_objects)]
        side = rng.uniform(5.0, 60.0)
        probes.append(AABB.from_center_extent(anchor + rng.normal(scale=5.0, size=3), side))
    return probes


def bench_index_build(dataset, fanout: int, repeats: int) -> dict[str, Any]:
    build_seconds = {
        "rtree": _best_of(lambda: STRTree(dataset, fanout=fanout), repeats),
        "grid": _best_of(lambda: GridIndex(dataset, fanout=fanout), repeats),
        "flat": _best_of(lambda: FlatIndex(dataset, fanout=fanout), repeats),
        "flat_scalar_baseline": _best_of(
            lambda: ScalarFlatIndex(dataset, fanout=fanout), repeats
        ),
    }
    return {
        "n_objects": dataset.n_objects,
        "fanout": fanout,
        "build_seconds": build_seconds,
        "flat_build_speedup": build_seconds["flat_scalar_baseline"] / build_seconds["flat"],
    }


def bench_region_query(dataset, fanout: int, n_probes: int, repeats: int) -> dict[str, Any]:
    vector = FlatIndex(dataset, fanout=fanout)
    scalar = ScalarFlatIndex(dataset, fanout=fanout)
    probes = _probe_regions(dataset, n_probes)

    # The two paths must agree before their timings mean anything.
    batched = vector.pages_for_regions(probes)
    for probe, pages in zip(probes, batched):
        if not np.array_equal(scalar.pages_for_region(probe), pages):
            raise AssertionError("scalar and vectorized page sets diverged")

    def run_scalar():
        for probe in probes:
            scalar.pages_for_region(probe)

    def run_vector_single():
        for probe in probes:
            vector.pages_for_region(probe)

    scalar_s = _best_of(run_scalar, repeats)
    single_s = _best_of(run_vector_single, repeats)
    batched_s = _best_of(lambda: vector.pages_for_regions(probes), repeats)
    return {
        "n_probes": n_probes,
        "n_pages": vector.n_pages,
        "scalar_qps": n_probes / scalar_s,
        "vector_single_qps": n_probes / single_s,
        "vector_batched_qps": n_probes / batched_s,
        "single_speedup": scalar_s / single_s,
        # The headline number: the batched path is what the simulator's
        # plan execution and adjacency preprocessing actually call.
        "batched_speedup": scalar_s / batched_s,
    }


def bench_prediction(dataset, index, n_queries: int, repeats: int) -> dict[str, Any]:
    sequences = generate_sequences(
        dataset, n_sequences=1, seed=31, n_queries=n_queries, volume=60_000.0
    )
    queries = sequences[0].queries
    observed = [index.query(q.bounds) for q in queries]

    def run_prediction():
        from repro.baselines.base import ObservedQuery

        prefetcher = ScoutPrefetcher(dataset, ScoutConfig())
        prefetcher.begin_sequence()
        for i, (query, result) in enumerate(zip(queries, observed)):
            prefetcher.observe(
                ObservedQuery(index=i, bounds=query.bounds, result_object_ids=result.object_ids)
            )
            prefetcher.plan()

    prediction_s = _best_of(run_prediction, repeats)

    # The crossing-extraction kernel, vectorized vs scalar reference, on
    # the largest observed result set.
    richest = max(observed, key=lambda r: r.n_objects)
    region = queries[int(np.argmax([r.n_objects for r in observed]))].bounds
    ids = richest.object_ids
    crossings_vector_s = _best_of(lambda: region_crossings(dataset, ids, region), repeats)
    crossings_scalar_s = _best_of(
        lambda: region_crossings_reference(dataset, ids, region), repeats
    )
    return {
        "n_queries": n_queries,
        "observe_plan_seconds": prediction_s,
        "observe_plan_ms_per_query": 1e3 * prediction_s / n_queries,
        "crossings_n_objects": int(len(ids)),
        "crossings_scalar_seconds": crossings_scalar_s,
        "crossings_vector_seconds": crossings_vector_s,
        "crossings_speedup": crossings_scalar_s / crossings_vector_s,
    }


def bench_fig13a(
    dataset, fanout: int, volumes: list[float], n_sequences: int, n_queries: int
) -> dict[str, Any]:
    """A small Fig-13 panel-a sweep (jobs=1), scalar vs vectorized index.

    Datasets, indexes and sequences are built outside the timed region,
    so the wall clocks cover simulation only -- the part the index and
    prediction hot paths dominate.  Both runs must produce bit-identical
    metrics; a mismatch fails the bench.
    """
    vector = FlatIndex(dataset, fanout=fanout)
    scalar = ScalarFlatIndex(dataset, fanout=fanout)
    cells = [
        (
            volume,
            generate_sequences(
                dataset,
                n_sequences=n_sequences,
                seed=13,
                n_queries=n_queries,
                volume=volume,
            ),
        )
        for volume in volumes
    ]

    def sweep(index):
        outcomes = []
        started = time.perf_counter()
        for _, sequences in cells:
            prefetcher = ScoutPrefetcher(dataset, ScoutConfig())
            outcomes.append(run_experiment(index, sequences, prefetcher))
        return time.perf_counter() - started, outcomes

    vector_s, vector_outcomes = sweep(vector)
    scalar_s, scalar_outcomes = sweep(scalar)
    for a, b in zip(vector_outcomes, scalar_outcomes):
        if asdict(a.metrics) != asdict(b.metrics):
            raise AssertionError("scalar and vectorized sweep metrics diverged")
    return {
        "volumes": volumes,
        "n_sequences": n_sequences,
        "n_queries": n_queries,
        "jobs": 1,
        "scalar_seconds": scalar_s,
        "vector_seconds": vector_s,
        "sweep_speedup": scalar_s / vector_s,
        "metrics_bit_identical": True,
        "hit_rates": [o.metrics.cache_hit_rate for o in vector_outcomes],
    }


def bench_serving(dataset, index, n_clients: int, n_queries: int, repeats: int) -> dict[str, Any]:
    """Lockstep vs round-robin serving throughput on a hotspot fleet.

    ``n_clients`` EWMA sessions follow a Zipf-popular pool of eight hot
    walks through one shared cache -- the contention regime the serving
    layer exists for.  The fleet, index and workload are built outside
    the timed region; each timed run gets fresh prefetcher state.  The
    two schedulers' full :class:`~repro.sim.metrics.ServeReport`\\ s
    (every per-query record, every contention counter) must compare
    equal *before* any timing counts -- a speedup over a divergent
    computation would be meaningless.
    """
    clients = multiclient_sessions(
        dataset,
        n_clients=n_clients,
        seed=21,
        n_queries=n_queries,
        volume=30_000.0,
        mode="hotspot",
        stagger=0,
        hot_pool=8,
    )
    sim = ServingSimulator(index)

    def fleet():
        return [EWMAPrefetcher(lam=0.3) for _ in clients]

    reference = sim.run(clients, fleet(), lockstep=False)
    vectorized = sim.run(clients, fleet(), lockstep=True)
    if asdict(reference) != asdict(vectorized):
        raise AssertionError("round-robin and lockstep serve reports diverged")

    rr_s = _best_of(lambda: sim.run(clients, fleet(), lockstep=False), repeats)
    ls_s = _best_of(lambda: sim.run(clients, fleet(), lockstep=True), repeats)
    n_total = n_clients * n_queries
    return {
        "n_clients": n_clients,
        "n_queries_per_client": n_queries,
        "mode": "hotspot",
        "hot_pool": 8,
        "round_robin_seconds": rr_s,
        "lockstep_seconds": ls_s,
        "round_robin_qps": n_total / rr_s,
        "lockstep_qps": n_total / ls_s,
        "lockstep_speedup": rr_s / ls_s,
        "reports_bit_identical": True,
    }


def bench_sharded_serving(repeats: int) -> dict[str, Any]:
    """The hot-shard scale-out gain of the sharded cache.

    Unlike the other serving suites this one builds its own fixed
    workload (16 neurons, 64 clients, 8 queries) in both quick and full
    modes: the gated quantity -- the hot fleet's simulated q/s -- is
    meant to be an invariant of the *mechanism*, and pinning the
    workload keeps its budget floor valid at every bench scale.

    A Zipf-hot fleet over a deliberately tiny single cache thrashes --
    most touches miss and pay demand reads -- then re-runs over K = 8
    Hilbert shards with the same capacity *per shard* and rebalancing
    on: the scale-out story, where each shard is a node bringing its own
    memory arm.  The gain is measured where the simulation accounts
    I/O: queries per *simulated* response second, a deterministic
    quantity for a fixed workload, so the sharded fleet beating the
    single cache is asserted outright before the numbers count (gated
    by the ``sharded_hot_qps`` budget floor).  Wall-clock seconds for
    both runs are recorded for the record but not gated -- python-level
    routing overhead against simulated I/O saved is not a
    machine-invariant ratio.
    """
    from repro.storage.sharded import ShardSpec

    n_clients, n_queries = 64, 8
    dataset = make_neuron_tissue(n_neurons=16, seed=7)
    index = FlatIndex(dataset, fanout=16)

    hot_capacity = 64
    hot_clients = multiclient_sessions(
        dataset,
        n_clients=n_clients,
        seed=21,
        n_queries=n_queries,
        volume=240_000.0,
        mode="hotspot",
        stagger=0,
        hot_pool=8,
    )

    def fleet():
        return [EWMAPrefetcher(lam=0.3) for _ in hot_clients]

    single_sim = ServingSimulator(
        index, SimulationConfig(cache_capacity_pages=hot_capacity)
    )
    sharded_sim = ServingSimulator(
        index,
        SimulationConfig(
            cache_capacity_pages=hot_capacity,
            shards=ShardSpec(
                n_shards=8, shard_cache_pages=hot_capacity, rebalance=True
            ),
        ),
    )

    def run_single():
        return single_sim.run(hot_clients, fleet(), lockstep=True)

    def run_sharded():
        return sharded_sim.run(hot_clients, fleet(), lockstep=True)

    single_report = run_single()
    sharded_report = run_sharded()
    if not (sharded_report.shard_rebalances or 0) > 0:
        raise AssertionError("hot fleet did not trigger a single rebalance")
    n_total = n_clients * n_queries
    single_sim_qps = n_total / single_report.to_aggregate().response_seconds
    sharded_sim_qps = n_total / sharded_report.to_aggregate().response_seconds
    if sharded_sim_qps <= single_sim_qps:
        raise AssertionError(
            f"sharded hot fleet must beat the single cache on simulated "
            f"throughput: {sharded_sim_qps:,.0f} <= {single_sim_qps:,.0f} q/s"
        )
    single_s = _best_of(run_single, repeats)
    sharded_s = _best_of(run_sharded, repeats)
    return {
        "n_clients": n_clients,
        "n_queries_per_client": n_queries,
        "hot_capacity_pages": hot_capacity,
        "hot_n_shards": 8,
        "hot_rebalances": sharded_report.shard_rebalances,
        "hot_pages_moved": sharded_report.shard_pages_moved,
        "hot_single_hit_rate": single_report.to_aggregate().cache_hit_rate,
        "hot_sharded_hit_rate": sharded_report.to_aggregate().cache_hit_rate,
        "hot_single_sim_qps": single_sim_qps,
        "hot_sharded_sim_qps": sharded_sim_qps,
        "hot_sim_speedup": sharded_sim_qps / single_sim_qps,
        "hot_single_seconds": single_s,
        "hot_sharded_seconds": sharded_s,
    }


def bench_serving_daemon(n_requests: int, n_neurons: int) -> dict[str, Any]:
    """End-to-end throughput of the asyncio serving daemon.

    Boots a :class:`~repro.serve.ServeDaemon` in-process on an ephemeral
    port and drives it with the seeded open-loop generator at an offered
    rate far above service capacity, with the admission queue sized to
    hold the whole backlog.  Nothing is shed, so ``achieved_qps`` is the
    daemon's drain rate: length-prefixed framing, admission queueing and
    synchronous session stepping, measured through real sockets.  The
    request count is deterministic (seeded fixed-count schedule); every
    request must be answered ``ok`` before the numbers count.
    """
    import asyncio

    from repro.serve import DaemonConfig, ServeDaemon, run_loadgen

    config = DaemonConfig(
        port=0,
        n_neurons=n_neurons,
        seed=21,
        session_pool=8,
        queries_per_session=16,
        max_queue=n_requests,
        report_interval=3600.0,
    )

    async def drive() -> dict[str, Any]:
        daemon = ServeDaemon(config)
        await daemon.start()
        try:
            return await run_loadgen(
                "127.0.0.1",
                daemon.port,
                connections=4,
                process="poisson",
                rate=1e6,
                requests=n_requests,
                seed=42,
                shutdown=True,
            )
        finally:
            await daemon.shutdown()

    client = asyncio.run(drive())
    if client["ok"] != n_requests or client["shed"] or client["errors"]:
        raise AssertionError(
            f"serving daemon bench expected {n_requests} ok replies, got "
            f"ok={client['ok']} shed={client['shed']} errors={client['errors']}"
        )
    latency = client["latency"]
    return {
        "n_requests": n_requests,
        "n_neurons": n_neurons,
        "connections": client["connections"],
        "offered_rate": client["offered_rate"],
        "achieved_qps": client["achieved_qps"],
        "p50_ms": latency["p50_ms"],
        "p99_ms": latency["p99_ms"],
        "p999_ms": latency["p999_ms"],
        "drained": bool(client["drained"]),
    }


def run_bench(quick: bool = False, rev: str | None = None) -> BenchReport:
    """Run every suite and assemble the report (does not write it)."""
    if quick:
        n_neurons, fanout = 16, 16
        n_probes, repeats = 200, 2
        volumes, n_sequences, n_queries = [10_000.0, 80_000.0], 2, 10
        n_serve_clients = 64
    else:
        n_neurons, fanout = 40, 16
        n_probes, repeats = 1000, 3
        volumes, n_sequences, n_queries = [10_000.0, 45_000.0, 80_000.0, 115_000.0], 4, 25
        n_serve_clients = 256

    dataset = make_neuron_tissue(n_neurons=n_neurons, seed=7)
    index = FlatIndex(dataset, fanout=fanout)

    report = BenchReport(rev=rev or git_rev(), quick=quick)
    report.results["index_build"] = bench_index_build(dataset, fanout, repeats)
    report.results["region_query"] = bench_region_query(dataset, fanout, n_probes, repeats)
    report.results["prediction"] = bench_prediction(dataset, index, min(n_queries, 15), repeats)
    report.results["fig13a"] = bench_fig13a(dataset, fanout, volumes, n_sequences, n_queries)
    report.results["serving"] = bench_serving(
        dataset, index, n_serve_clients, n_queries=8, repeats=repeats
    )
    report.results["sharded_serving"] = bench_sharded_serving(repeats=repeats)
    report.results["serving_daemon"] = bench_serving_daemon(
        n_requests=400 if quick else 1500, n_neurons=8 if quick else 16
    )
    return report


def check_budget(report: BenchReport, budget_path: str | Path) -> list[str]:
    """Regression check against a checked-in throughput budget.

    The budget file holds conservative floor values (set well below a
    healthy run, so slower CI machines do not flap) and a tolerance; a
    measurement below ``floor * (1 - tolerance)`` is a failure.  Returns
    the list of violation messages (empty = pass).
    """
    budget = json.loads(Path(budget_path).read_text())
    tolerance = float(budget.get("tolerance", 0.30))
    region = report.results.get("region_query", {})
    serving = report.results.get("serving", {})
    sharded = report.results.get("sharded_serving", {})
    daemon = report.results.get("serving_daemon", {})
    # Floors are "higher is better", so the prediction path's
    # milliseconds per observe+plan are gated as queries per second.
    observe_plan_ms = report.results.get("prediction", {}).get("observe_plan_ms_per_query", 0.0)
    measured = {
        # Speedup ratios are the primary gates: scalar baseline and
        # vectorized path run on the same machine in the same bench, so
        # the ratio is robust to CI runner speed.  The absolute q/s
        # floors are catastrophe backstops only.
        "region_query_batched_speedup": region.get("batched_speedup", 0.0),
        "region_query_single_speedup": region.get("single_speedup", 0.0),
        "region_query_batched_qps": region.get("vector_batched_qps", 0.0),
        "region_query_single_qps": region.get("vector_single_qps", 0.0),
        "serving_lockstep_speedup": serving.get("lockstep_speedup", 0.0),
        "serving_lockstep_qps": serving.get("lockstep_qps", 0.0),
        "sharded_hot_qps": sharded.get("hot_sharded_sim_qps", 0.0),
        "serving_daemon_qps": daemon.get("achieved_qps", 0.0),
        "prediction_observe_plan_qps": 1e3 / observe_plan_ms if observe_plan_ms else 0.0,
        "fig13a_sweep_speedup": report.results.get("fig13a", {}).get("sweep_speedup", 0.0),
    }
    failures = []
    for name, floor in budget.get("floors", {}).items():
        # A floor is a bare number (gated with the global tolerance) or
        # a {"floor": x, "tolerance": y} object for gates that need a
        # tighter band than the global one -- sharded_hot_qps is a
        # deterministic simulated quantity, so 30 % would hide a change.
        if isinstance(floor, dict):
            floor_value = float(floor["floor"])
            floor_tolerance = float(floor.get("tolerance", tolerance))
        else:
            floor_value = float(floor)
            floor_tolerance = tolerance
        value = measured.get(name)
        if value is None:
            failures.append(f"budget names unknown metric {name!r}")
            continue
        limit = floor_value * (1.0 - floor_tolerance)
        if value < limit:
            failures.append(
                f"{name}: measured {_fmt(value)} < floor {_fmt(floor_value)} "
                f"* (1 - {floor_tolerance:.2f}) = {_fmt(limit)}"
            )
    return failures


def _fmt(value: float) -> str:
    """Budget-message number: thousands for rates, decimals for ratios."""
    return f"{value:,.0f}" if value >= 100 else f"{value:.3f}"


def render_report(report: BenchReport) -> str:
    """Human-readable summary printed by ``scout-repro bench``."""
    r = report.results
    lines = [f"bench rev={report.rev} quick={report.quick}"]
    if "index_build" in r:
        b = r["index_build"]
        secs = b["build_seconds"]
        lines.append(
            f"index build    : rtree {secs['rtree']:.3f}s  grid {secs['grid']:.3f}s  "
            f"flat {secs['flat']:.3f}s  (scalar flat {secs['flat_scalar_baseline']:.3f}s, "
            f"{b['flat_build_speedup']:.1f}x)"
        )
    if "region_query" in r:
        q = r["region_query"]
        lines.append(
            f"region queries : scalar {q['scalar_qps']:,.0f} q/s  "
            f"vector {q['vector_single_qps']:,.0f} q/s ({q['single_speedup']:.1f}x)  "
            f"batched {q['vector_batched_qps']:,.0f} q/s ({q['batched_speedup']:.1f}x)"
        )
    if "prediction" in r:
        p = r["prediction"]
        lines.append(
            f"prediction     : {p['observe_plan_ms_per_query']:.2f} ms/query  "
            f"crossings {p['crossings_speedup']:.1f}x vs scalar"
        )
    if "fig13a" in r:
        f = r["fig13a"]
        lines.append(
            f"fig13a sweep   : vector {f['vector_seconds']:.2f}s  "
            f"scalar {f['scalar_seconds']:.2f}s  ({f['sweep_speedup']:.1f}x, "
            f"metrics bit-identical)"
        )
    if "serving" in r:
        s = r["serving"]
        lines.append(
            f"serving        : {s['n_clients']} clients  "
            f"lockstep {s['lockstep_qps']:,.0f} q/s  "
            f"round-robin {s['round_robin_qps']:,.0f} q/s  "
            f"({s['lockstep_speedup']:.1f}x, reports bit-identical)"
        )
    if "sharded_serving" in r:
        sh = r["sharded_serving"]
        lines.append(
            f"sharded cache  : hot K=8 {sh['hot_sharded_sim_qps']:,.0f} sim-q/s vs "
            f"K=1 {sh['hot_single_sim_qps']:,.0f} "
            f"({sh['hot_sim_speedup']:.1f}x, {sh['hot_rebalances']} rebalances)"
        )
    if "serving_daemon" in r:
        d = r["serving_daemon"]
        lines.append(
            f"serving daemon : {d['achieved_qps']:,.0f} q/s drain over "
            f"{d['connections']} connections  p50 {d['p50_ms']:.2f}ms  "
            f"p99 {d['p99_ms']:.2f}ms  ({d['n_requests']} requests, drained)"
        )
    return "\n".join(lines)
