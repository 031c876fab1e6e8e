"""Serving over a sharded cache: hot shard found, split moved, load spread.

Everything upstream funnels every client through ONE shared cache; the
sharded data plane (DESIGN.md §10) range-partitions the page space
along the page table's Hilbert keys into K cache shards -- each its
own simulated node with its own memory -- behind the same observable
cache contract.

The script makes the scale-out story concrete with a deliberately
skewed fleet: Zipf-hotspot clients hammer one sequence, so under a
static partition one shard takes nearly the whole demand stream while
its siblings idle.  It then arms the hot-shard rebalancer (an EWMA
detector plus a deterministic split-point mover) and shows the split
keys migrate, cached pages follow their new owners, and the per-shard
request balance -- and with it the aggregate hit rate -- recovers.

Run:  python examples/sharded_serving.py

The full shards grid (clients x shard count x partition x prefetcher,
resumable and parallel) is the sweep engine's job:

    scout-repro sweep --figure shards --jobs 4 --out results/shards.jsonl
"""

from repro.baselines import EWMAPrefetcher
from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.sim import ServingSimulator, SimulationConfig
from repro.storage.sharded import ShardSpec
from repro.workload import multiclient_sessions

N_CLIENTS = 16
N_SHARDS = 4
PAGES_PER_SHARD = 8


def serve(index, clients, spec):
    config = SimulationConfig(
        cache_capacity_pages=N_SHARDS * PAGES_PER_SHARD, shards=spec
    )
    simulator = ServingSimulator(index, config)
    return simulator.run(clients, [EWMAPrefetcher(lam=0.3) for _ in clients])


def shard_table(report) -> str:
    rows = [f"{'shard':>8s}{'requests':>10s}{'hits':>7s}{'share':>8s}"]
    total = sum(report.shard_requests)
    for shard, (requests, hits) in enumerate(
        zip(report.shard_requests, report.shard_hits)
    ):
        share = 0.0 if total == 0 else requests / total
        rows.append(f"{shard:>8d}{requests:>10d}{hits:>7d}{100 * share:>7.1f}%")
    return "\n".join(rows)


def main() -> None:
    tissue = make_neuron_tissue(n_neurons=24, seed=7)
    index = FlatIndex(tissue, fanout=16)
    print(f"Neuron tissue: {tissue.n_objects:,} objects across {index.n_pages:,} pages")
    print(
        f"{N_CLIENTS} hotspot clients share one hot sequence; the cache is "
        f"{N_SHARDS} Hilbert-partitioned\nshards of {PAGES_PER_SHARD} pages "
        "each (DESIGN.md §10).\n"
    )

    clients = multiclient_sessions(
        tissue, n_clients=N_CLIENTS, seed=21, n_queries=25,
        volume=80_000.0, mode="hotspot", stagger=0, hot_pool=1,
    )

    static = serve(index, clients, ShardSpec(n_shards=N_SHARDS))
    print("Static partition -- the hot sequence lives on one shard:")
    print(shard_table(static))
    print(
        f"aggregate hit rate {100 * static.aggregate_hit_rate:.1f}%, "
        f"rebalances {static.shard_rebalances}\n"
    )

    rebalanced = serve(
        index,
        clients,
        ShardSpec(n_shards=N_SHARDS, rebalance=True, rebalance_interval=8),
    )
    print("Rebalancer armed -- the hot shard donates half its key range:")
    print(shard_table(rebalanced))
    print(
        f"aggregate hit rate {100 * rebalanced.aggregate_hit_rate:.1f}%, "
        f"rebalances {rebalanced.shard_rebalances}, "
        f"pages moved {rebalanced.shard_pages_moved}"
    )

    static_max = max(static.shard_requests) / max(1, sum(static.shard_requests))
    moved_max = max(rebalanced.shard_requests) / max(1, sum(rebalanced.shard_requests))
    print(
        f"\nHottest-shard load share: {100 * static_max:.1f}% -> "
        f"{100 * moved_max:.1f}%.\n"
        "The detector is an EWMA of per-batch shard load; the mover cuts the\n"
        "hot shard's key range at its median owned key and hands the released\n"
        "half to the colder neighbor, migrating cached pages with their LRU\n"
        "position and owner tags.  Every step is a pure function of the touch\n"
        "sequence, so both serving schedulers rebalance identically -- the\n"
        "sweep (always lockstep) and the round-robin reference match bit for bit."
    )


if __name__ == "__main__":
    main()
