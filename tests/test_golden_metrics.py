"""Golden-metrics regression suite: one pinned cell per evaluation figure.

Each fixture under ``tests/golden/`` freezes the *exact* metrics (hit
rate, pages fetched, unused-prefetch rate, ...) of one small-seed cell
from each figure grid (10-13, 17 and the four serving grids).  The suite recomputes the cell
from its stored spec and compares **exactly** -- simulation cells are
deterministic functions of their spec, so any drift in the engine,
prefetchers, generators or workload synthesis shows up as a diff here
before it silently shifts a paper table.

Intentional changes regenerate the fixtures::

    pytest tests/test_golden_metrics.py --update-golden

then commit the diff (it documents the behavior change for review).

The exact float comparison makes fixtures sensitive to the numpy/BLAS
build: regenerate them on the CI platform (linux x86-64) -- a fixture
produced on a different architecture can differ in the last ulp of a
reduction and fail CI with no code change.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.sim import CellSpec, ServingSimulator, run_experiment
from repro.sim.runner import (
    DatasetSpec,
    IndexSpec,
    PrefetcherSpec,
    WorkloadSpec,
    prepare_cell,
    prepare_serving_cell,
)
from repro.workload.sweeps import (
    fig10_matrix,
    fig11_matrix,
    fig12_matrix,
    fig13_matrix,
    fig17_matrix,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

TINY = dict(n_neurons=6, n_sequences=2)


def golden_cells() -> dict[str, CellSpec]:
    """One small, fast representative cell per figure grid."""
    return {
        "fig10": fig10_matrix(benches=["adhoc_stat"], **TINY).cells()[0],
        "fig11": fig11_matrix(
            benches=["model_building"], prefetchers=(("ewma", {"lam": 0.3}),), **TINY
        ).cells()[0],
        "fig12": fig12_matrix(
            benches=["vis_gaps_low"], prefetchers=(("scout-opt", {}),), **TINY
        ).cells()[0],
        "fig13": fig13_matrix("d", **TINY).cells()[0],
        "fig17": fig17_matrix(
            "a",
            datasets={"roads": {"seed": 17, "grid_size": 6}},
            prefetchers=(("scout", {}),),
            n_sequences=2,
        )[0],
        # One serving cell with real contention: three clients follow a
        # single hot sequence through an undersized shared cache, so the
        # fixture freezes cross-client hits and eviction-induced misses
        # alongside the ordinary metric set.  The two serving schedulers
        # are proven bit-identical (test_serving_lockstep.py), so this
        # fixture pins both at once.
        "clients": CellSpec(
            dataset=DatasetSpec("neuron", {"n_neurons": 6, "seed": 7}),
            index=IndexSpec("flat", {"fanout": 16}),
            workload=WorkloadSpec(n_sequences=3, n_queries=4, volume=30_000.0),
            prefetcher=PrefetcherSpec("ewma", {"lam": 0.3}),
            seed=21,
            sim={"cache_capacity_pages": 8},
            serve={"n_clients": 3, "mode": "hotspot", "stagger": 1, "hot_pool": 1},
        ),
        # The clients cell again, but served through an *active*
        # TieredStore (combined miss path over a small tier), freezing
        # the storage-side accounting -- tier hits, miss-path hits,
        # backing fills -- alongside the ordinary serving metric set.
        # The disabled-store configuration needs no fixture of its own:
        # the differential suite (test_tiered_properties.py) proves it
        # bit-identical to the bare disk, so the other fixtures pin it.
        "tiers": CellSpec(
            dataset=DatasetSpec("neuron", {"n_neurons": 6, "seed": 7}),
            index=IndexSpec("flat", {"fanout": 16}),
            workload=WorkloadSpec(n_sequences=3, n_queries=4, volume=30_000.0),
            prefetcher=PrefetcherSpec("ewma", {"lam": 0.3}),
            seed=21,
            sim={"cache_capacity_pages": 8},
            serve={"n_clients": 3, "mode": "hotspot", "stagger": 1, "hot_pool": 1},
            storage={"miss_path": "combined", "tier_pages": 8},
        ),
        # The same fleet on longer sessions over a *faulty* disk: half
        # of all read attempts fail transiently, one retry, and a
        # hair-trigger breaker (trips after two prefetch-path failures,
        # re-probes after two degraded queries) -- tight enough that a
        # 24-query cell exhausts retries, trips breakers and serves
        # degraded queries, freezing the fault-plane accounting.  The
        # inactive-plan configuration needs no fixture of its own: the
        # fault suite (test_faults.py) proves it bit-identical to the
        # bare disk, so the other fixtures pin it.
        "chaos": CellSpec(
            dataset=DatasetSpec("neuron", {"n_neurons": 6, "seed": 7}),
            index=IndexSpec("flat", {"fanout": 16}),
            workload=WorkloadSpec(n_sequences=3, n_queries=8, volume=30_000.0),
            prefetcher=PrefetcherSpec("ewma", {"lam": 0.3}),
            seed=21,
            sim={"cache_capacity_pages": 8},
            serve={"n_clients": 3, "mode": "hotspot", "stagger": 1, "hot_pool": 1},
            faults={
                "transient_rate": 0.5,
                "seed": 11,
                "breaker": True,
                "retry_limit": 1,
                "breaker_threshold": 2,
                "breaker_cooldown": 2,
            },
        ),
        # The clients cell a third time, served through an *active*
        # sharded cache (4 Hilbert-partitioned shards with the hot-shard
        # rebalancer armed), freezing the routing-side accounting --
        # per-shard request/hit partitions, rebalance events, moved
        # pages -- alongside the ordinary serving metric set.  The
        # disabled (K=1) configuration needs no fixture of its own: the
        # differential suite (test_sharded_cache.py) proves it op-by-op
        # identical to the bare cache, so the other fixtures pin it.
        "shards": CellSpec(
            dataset=DatasetSpec("neuron", {"n_neurons": 6, "seed": 7}),
            index=IndexSpec("flat", {"fanout": 16}),
            workload=WorkloadSpec(n_sequences=3, n_queries=4, volume=30_000.0),
            prefetcher=PrefetcherSpec("ewma", {"lam": 0.3}),
            seed=21,
            sim={"cache_capacity_pages": 8},
            serve={"n_clients": 3, "mode": "hotspot", "stagger": 1, "hot_pool": 1},
            shards={
                "n_shards": 4,
                "partition": "hilbert",
                "rebalance": True,
                "rebalance_interval": 4,
            },
        ),
    }


def compute_metrics(spec: CellSpec) -> dict:
    """The golden metric set of one cell, from a fresh end-to-end run.

    Executes the cell through :func:`repro.sim.runner.prepare_cell` --
    the exact pipeline the sweep engine runs -- but keeps the per-query
    records, which carry the page-level accounting the aggregate
    metrics drop.  Serving cells (a ``serve`` mapping on the spec) run
    through :class:`ServingSimulator` instead and additionally freeze
    the shared-cache contention counters.
    """
    if spec.serve:
        return compute_serving_metrics(spec)
    index, sequences, prefetcher, config = prepare_cell(spec)
    outcome = run_experiment(index, sequences, prefetcher, config)

    records = [record for sequence in outcome.sequences for record in sequence.records]
    eligible = [record for sequence in outcome.sequences for record in sequence.eligible]
    pages_prefetched = sum(record.prefetch_pages for record in records)
    pages_hit = sum(record.pages_hit for record in eligible)
    pages_missed = sum(record.pages_needed - record.pages_hit for record in eligible)
    gap_io_pages = sum(record.gap_io_pages for record in records)
    metrics = outcome.metrics
    return {
        "cache_hit_rate": metrics.cache_hit_rate,
        "hit_rate_std": metrics.hit_rate_std,
        "speedup": None if math.isinf(metrics.speedup) else metrics.speedup,
        "pages_prefetched": int(pages_prefetched),
        "pages_fetched": int(pages_prefetched + pages_missed + gap_io_pages),
        "unused_prefetch_rate": (
            0.0 if pages_prefetched == 0 else max(0.0, 1.0 - pages_hit / pages_prefetched)
        ),
        "per_sequence_hit_rates": [float(r) for r in metrics.per_sequence_hit_rates],
    }


def compute_serving_metrics(spec: CellSpec) -> dict:
    """The golden metric set of one multi-client serving cell.

    Same keys as the single-client path (clients stand in for
    sequences) plus the contention counters that make a serving run a
    serving run: cross-client hits, eviction-induced misses, shared
    cache evictions and the tick count.  Scheduler-agnostic by the
    lockstep bit-identity guarantee.
    """
    index, clients, prefetchers, config = prepare_serving_cell(spec)
    report = ServingSimulator(index, config).run(clients, prefetchers)

    records = [record for client in report.clients for record in client.metrics.records]
    eligible = [record for client in report.clients for record in client.metrics.eligible]
    pages_prefetched = sum(record.prefetch_pages for record in records)
    pages_hit = sum(record.pages_hit for record in eligible)
    pages_missed = sum(record.pages_needed - record.pages_hit for record in eligible)
    gap_io_pages = sum(record.gap_io_pages for record in records)
    metrics = report.to_aggregate()
    metric_set = {
        "cache_hit_rate": metrics.cache_hit_rate,
        "hit_rate_std": metrics.hit_rate_std,
        "speedup": None if math.isinf(metrics.speedup) else metrics.speedup,
        "pages_prefetched": int(pages_prefetched),
        "pages_fetched": int(pages_prefetched + pages_missed + gap_io_pages),
        "unused_prefetch_rate": (
            0.0 if pages_prefetched == 0 else max(0.0, 1.0 - pages_hit / pages_prefetched)
        ),
        "per_sequence_hit_rates": [float(r) for r in metrics.per_sequence_hit_rates],
        "cross_client_hits": int(report.cross_client_hits),
        "evicted_misses": int(report.evicted_misses),
        "cache_evictions": int(report.cache_evictions),
        "n_ticks": int(report.n_ticks),
    }
    if report.faults_active:
        # Fault-plane keys only when the cell configures a fault plan,
        # so the pre-existing serving fixtures stay byte-identical.
        metric_set.update(
            failed_reads=int(report.failed_reads),
            degraded_ticks=int(report.degraded_ticks),
            breaker_opens=int(report.breaker_opens),
        )
    if report.tiers_active:
        # Storage-side keys only when the cell configures an active
        # tier, so the pre-existing serving fixtures stay byte-identical.
        metric_set.update(
            tier_hits=int(report.tier_hits),
            miss_path_hits=int(report.miss_path_hits),
            tier_fills=int(report.tier_fills),
            tier_stall_seconds=float(report.tier_stall_seconds),
        )
    if report.shards_active:
        # Routing-side keys only when the cell shards the cache (K > 1),
        # for the same byte-identity reason.
        metric_set.update(
            shard_requests=[int(v) for v in report.shard_requests],
            shard_hits=[int(v) for v in report.shard_hits],
            shard_rebalances=int(report.shard_rebalances),
            shard_pages_moved=int(report.shard_pages_moved),
        )
    return metric_set


@pytest.mark.parametrize("figure", sorted(golden_cells()))
def test_figure_cell_matches_golden_metrics(figure, request):
    cell = golden_cells()[figure]
    path = GOLDEN_DIR / f"{figure}.json"
    computed = compute_metrics(cell)

    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"spec": cell.to_dict(), "metrics": computed}, indent=2, sort_keys=True)
            + "\n"
        )
        return

    assert path.exists(), (
        f"missing golden fixture {path}; generate it with "
        f"'pytest tests/test_golden_metrics.py --update-golden'"
    )
    stored = json.loads(path.read_text())
    assert stored["spec"] == cell.to_dict(), (
        f"the {figure} golden cell's spec changed; if intentional, regenerate "
        f"with --update-golden and commit the diff"
    )
    # Exact comparison, not approx: cells are deterministic functions of
    # their specs (the parallel-runner determinism guarantee), so any
    # difference at all is drift worth reviewing.
    assert computed == stored["metrics"], (
        f"{figure} metrics drifted from the golden fixture; if intentional, "
        f"regenerate with --update-golden and commit the diff"
    )
