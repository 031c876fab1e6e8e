"""§8.2 memory accounting plus ablations of the paper's design choices.

- Memory: SCOUT's prediction structures vs SCOUT-OPT's sparse subgraph,
  relative to the result footprint (paper: ~24 % vs ~6 %).
- Ablation ♦ deep vs broad prefetching: §5.2 predicts equal-ish means
  with lower variance for broad.
- Ablation ♦ incremental vs one-shot prefetching: §5.1's growing
  regions must not lose to a single full-size prefetch query.
- Ablation ♦ grid hashing (§4.2) vs brute-force graph construction cost.

Direct, not ``Figure`` registry entries (DESIGN.md §4): the memory
table reads a live prefetcher's ``last_graph_memory_bytes`` after every
query and the grid-hash ablation times single graph builds on the wall
clock, neither of which a stored sweep cell carries; the two hit-rate
ablations test choices the paper argues in prose and draws no figure
for, so there is no registry entry for them to be.
"""

import time

import numpy as np

from repro.analysis import ResultTable
from repro.baselines import ObservedQuery
from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher
from repro.datagen.dataset import OBJECT_BYTES
from repro.geometry import AABB
from repro.graph import build_graph_brute_force, build_graph_grid_hash
from repro.sim import SimulationConfig, run_experiment
from repro.workload import generate_sequences

N_SEQUENCES = 6  # per ablation arm; the paper runs 30-50


def hit_pct(result) -> float:
    return 100.0 * result.metrics.cache_hit_rate


def test_mem_graph_footprint(tissue, tissue_index):
    def measure():
        sequences = generate_sequences(
            tissue, 3, seed=82, n_queries=10, volume=120_000.0
        )
        scout = ScoutPrefetcher(tissue)
        opt = ScoutOptPrefetcher(tissue, tissue_index)
        ratios = {"scout": [], "scout-opt": []}
        for sequence in sequences:
            scout.begin_sequence()
            opt.begin_sequence()
            for i, query in enumerate(sequence.queries):
                result = tissue_index.query(query.bounds)
                if result.n_objects == 0:
                    continue
                observed = ObservedQuery(i, query.bounds, result.object_ids)
                scout.observe(observed)
                opt.observe(observed)
                result_bytes = result.n_objects * OBJECT_BYTES
                ratios["scout"].append(scout.last_graph_memory_bytes / result_bytes)
                ratios["scout-opt"].append(opt.last_graph_memory_bytes / result_bytes)
        return {k: float(np.mean(v)) for k, v in ratios.items()}

    ratios = measure()
    table = ResultTable(
        "§8.2 -- prediction-structure memory / result footprint [%]",
        ["scout", "scout-opt"],
        figure_id="mem",
    )
    table.add_row("measured", [100 * ratios["scout"], 100 * ratios["scout-opt"]])
    table.add_row("paper", [24.0, 6.0])
    table.print()
    assert ratios["scout-opt"] <= ratios["scout"]
    assert ratios["scout"] < 1.5  # same order as the result footprint


def test_ablation_deep_vs_broad(tissue, tissue_index):
    def measure():
        sequences = generate_sequences(
            tissue, N_SEQUENCES, seed=52, n_queries=25, volume=80_000.0
        )
        out = {}
        for strategy in ("deep", "broad"):
            result = run_experiment(
                tissue_index,
                sequences,
                ScoutPrefetcher(tissue, ScoutConfig(strategy=strategy)),
            )
            out[strategy] = (
                hit_pct(result),
                100 * result.metrics.hit_rate_std,
            )
        return out

    out = measure()
    table = ResultTable(
        "Ablation -- deep vs broad prefetching", ["hit %", "std %"], precision=2
    )
    for strategy, (mean, std) in out.items():
        table.add_row(strategy, [mean, std])
    table.print()
    # §5.2: broad does not lose much in mean and both must function.
    assert out["broad"][0] > out["deep"][0] - 10.0


def test_ablation_incremental_vs_oneshot(tissue, tissue_index):
    def measure():
        sequences = generate_sequences(
            tissue, N_SEQUENCES, seed=53, n_queries=25, volume=80_000.0
        )
        incremental = run_experiment(
            tissue_index, sequences, ScoutPrefetcher(tissue)
        )
        oneshot_config = SimulationConfig(
            incremental_start_fraction=1.2,
            incremental_growth=1.0,
            incremental_max_steps=1,
            incremental_max_fraction=1.2,
        )
        oneshot = run_experiment(
            tissue_index, sequences, ScoutPrefetcher(tissue), config=oneshot_config
        )
        return hit_pct(incremental), hit_pct(oneshot)

    incremental, oneshot = measure()
    table = ResultTable(
        "Ablation -- incremental vs one-shot prefetch", ["hit %"], precision=2
    )
    table.add_row("incremental (§5.1)", [incremental])
    table.add_row("one-shot", [oneshot])
    table.print()
    assert incremental > oneshot - 8.0


def test_ablation_grid_hash_vs_brute_force(tissue, tissue_index):
    def measure():
        region = AABB.cube(tissue.bounds.center, 120_000.0)
        result = tissue_index.query(region)
        ids = result.object_ids
        grid_report = build_graph_grid_hash(tissue, ids, region)
        started = time.perf_counter()
        brute_report = build_graph_brute_force(tissue, ids, distance_threshold=2.0)
        brute_seconds = time.perf_counter() - started
        return (
            len(ids),
            grid_report.wall_seconds,
            brute_seconds,
            grid_report.graph.n_edges,
            brute_report.graph.n_edges,
        )

    n, grid_s, brute_s, grid_edges, brute_edges = measure()
    table = ResultTable(
        "Ablation -- grid hashing vs brute force graph build",
        ["objects", "time ms", "edges"],
        precision=2,
    )
    table.add_row("grid-hash (§4.2)", [float(n), 1000 * grid_s, float(grid_edges)])
    table.add_row("brute-force O(n^2)", [float(n), 1000 * brute_s, float(brute_edges)])
    table.print()
    if n > 300:
        assert grid_s < brute_s  # the point of grid hashing
