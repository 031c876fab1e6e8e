"""Parameter sweeps for the paper's evaluation grids (Figs 3, 10-14, 17).

Five families of declarative grids live here:

* the **motivation grid** (paper §2, Fig 3): :func:`fig3_matrix`
  crosses the trajectory baselines SCOUT is motivated against with
  growing query volumes;
* the **microbenchmark grids** -- :func:`fig10_matrix` (the Figure-10
  workload registry under one prefetcher), :func:`fig11_matrix` (the
  no-gap microbenchmarks crossed with the standard prefetcher
  comparison set) and :func:`fig12_matrix` (the with-gap rows, adding
  SCOUT-OPT) -- built straight from
  :data:`repro.workload.benchmarks.MICROBENCHMARKS`;
* the **sensitivity sweeps** (paper §7.4, Fig 13): each panel fixes the
  §7.4 defaults -- 25-query sequences, 80,000 µm³ cubes,
  prefetch-window ratio 1 -- and varies one parameter.  The paper
  sweeps absolute values tied to its 450M-object tissue; we keep the
  paper's values where units transfer (volume, window ratio, sequence
  length, grid resolution, gap distance) and scale the density axis to
  synthetic-tissue sizes (Fig 13b varies objects at fixed volume);
  :func:`fig14_matrix` (§8.1, Fig 14) walks the same density axis for
  SCOUT's response-time breakdown;
* the **applicability grid** (paper §8.4, Fig 17):
  :func:`fig17_matrix` crosses the cross-domain datasets (lung airway
  mesh, arterial tree, road network) with the standard prefetcher set,
  one panel per query-size regime (small / large, sized as fractions of
  each dataset's volume);
* the **serving grids** (DESIGN.md §6-§10 -- extensions beyond the
  paper), every cell a multi-client
  :class:`~repro.sim.serve.ServingSimulator` run over one shared cache
  and disk: :func:`clients_matrix` (client counts x prefetchers x
  shared-cache sizes), :func:`chaos_matrix` (fault rate x prefetcher x
  circuit breaker), :func:`tiers_matrix` (tier size x prefetcher x
  miss-path mechanism) and :func:`shards_matrix` (clients x shard count
  x partition scheme x prefetcher).

All builders return pure-data :class:`~repro.sim.ExperimentMatrix`
values (Fig 17 and the serving grids return cell lists, because their
cells vary per-dataset query volumes or per-cell serving parameters);
run them with :class:`~repro.sim.ParallelRunner` (cells are keyed by
content hash, so repeated runs resume from the store).  A builder takes
only what some caller varies; everything else a grid fixes is a module
constant here, because every such value is part of the cell keys that
address stored results.

:mod:`repro.workload.figures` registers each grid as a ``scout-repro
sweep --figure`` value: the flags it takes, how they expand into these
builders' cells, the tables the results render as, and the paper shape
those tables are checked against.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Any, Iterable, Mapping, Sequence

from repro.sim.runner import (
    CellSpec,
    DatasetSpec,
    ExperimentMatrix,
    IndexSpec,
    PrefetcherSpec,
    WorkloadSpec,
    cached_dataset,
)
from repro.workload.benchmarks import MICROBENCHMARKS, microbenchmark_names

__all__ = [
    "CHAOS_RATES",
    "FIG3_PREFETCHERS",
    "FIG3_VOLUMES",
    "FIG11_PREFETCHERS",
    "FIG12_PREFETCHERS",
    "FIG13_PANELS",
    "FIG14_NEURONS",
    "FIG17_DATASET_PARAMS",
    "FIG17_PANELS",
    "SENSITIVITY_DEFAULTS",
    "SERVE_CACHE_PAGES",
    "SERVE_CLIENTS",
    "SERVE_PREFETCHERS",
    "SHARD_CLIENTS",
    "SHARD_COUNTS",
    "SHARD_PARTITIONS",
    "TIER_MISS_PATHS",
    "TIER_SIZES",
    "chaos_matrix",
    "clients_matrix",
    "fig3_matrix",
    "fig10_matrix",
    "fig11_matrix",
    "fig12_matrix",
    "fig13_axis_value",
    "fig13_matrix",
    "fig14_matrix",
    "fig17_matrix",
    "fig17_query_volume",
    "microbenchmark_of",
    "shards_matrix",
    "tiers_matrix",
]


#: The §7.4 defaults shared by all sensitivity experiments: 25-query
#: sequences of 80,000 µm³ cubes, no gaps, prefetch-window ratio 1.
SENSITIVITY_DEFAULTS = WorkloadSpec(n_sequences=8, n_queries=25, volume=80_000.0)

#: Neurons of the tissue those experiments run on unless told otherwise.
SENSITIVITY_NEURONS = 80

#: Seed of the neuron tissue every grid but the density axes runs on.
TISSUE_SEED = 7

#: Every cell queries a FLAT index of 16-object pages.  The paper packs
#: 87 objects into a 4 KB page of a 450M-object tissue; at laptop scale
#: 16 keeps the *spatial* page-to-query ratio in the paper's regime
#: (pages much smaller than queries, DESIGN.md §2).
FLAT_INDEX = IndexSpec("flat", {"fanout": 16})

#: Tissue extent (µm) the density axes (Figs 13b, 14) hold fixed while
#: the neuron count grows: the paper adds 50M objects per step to the
#: same 285 mm³.
DENSITY_EXTENT = 700.0


def _tissue(n_neurons: int | None) -> DatasetSpec:
    n_neurons = SENSITIVITY_NEURONS if n_neurons is None else int(n_neurons)
    return DatasetSpec("neuron", {"n_neurons": n_neurons, "seed": TISSUE_SEED})


def _dense_tissues(neuron_counts: Iterable[int], seed: int) -> tuple[DatasetSpec, ...]:
    return tuple(
        DatasetSpec("neuron", {"n_neurons": int(n), "seed": seed, "extent": DENSITY_EXTENT})
        for n in neuron_counts
    )


def _workload(n_sequences: int | None, **overrides: Any) -> WorkloadSpec:
    """The §7.4 default workload with ``overrides`` applied."""
    if n_sequences is not None:
        overrides["n_sequences"] = int(n_sequences)
    return replace(SENSITIVITY_DEFAULTS, **overrides)


def _prefetchers(
    table: Iterable[tuple[str, Mapping[str, Any]]],
) -> tuple[PrefetcherSpec, ...]:
    return tuple(PrefetcherSpec(kind, dict(params)) for kind, params in table)


# -- the Fig-3 motivation grid ------------------------------------------------------

#: Figure 3's x-axis: query volumes in µm³.
FIG3_VOLUMES: tuple[float, ...] = (10_000.0, 80_000.0, 150_000.0, 220_000.0)

#: Figure 3's series: the trajectory extrapolators SCOUT is motivated
#: against (kind, params).
FIG3_PREFETCHERS: tuple[tuple[str, dict], ...] = (
    ("ewma", {"lam": 0.3}),
    ("straight-line", {}),
    ("polynomial", {"degree": 2}),
    ("polynomial", {"degree": 3}),
)


def fig3_matrix(
    *,
    n_neurons: int | None = None,
    n_sequences: int | None = None,
    workload_seed: int = 31,
):
    """Figure 3: accuracy of the state of the art vs query volume.

    The paper's motivation experiment: the trajectory baselines on
    25-query sequences over neuron tissue, at growing query volumes.
    """
    return ExperimentMatrix(
        datasets=(_tissue(n_neurons),),
        indexes=(FLAT_INDEX,),
        workloads=tuple(_workload(n_sequences, volume=volume) for volume in FIG3_VOLUMES),
        prefetchers=_prefetchers(FIG3_PREFETCHERS),
        seeds=(workload_seed,),
    )


# -- the Fig-13 grid as experiment matrices -----------------------------------------


#: Panel letter -> (the cell-spec field the panel varies, as a path into
#: the spec dict; human title; the x-axis ticks).  Ticks follow the
#: paper's values except for density, which is expressed in neuron
#: counts scaled to the synthetic tissue (the paper adds 50M objects per
#: step).  :func:`fig13_matrix` builds a panel from its row and
#: :func:`fig13_axis_value` reads a cell's tick back through it.
FIG13_PANELS: dict[str, tuple[tuple[str, ...], str, tuple]] = {
    "a": (
        ("workload", "volume"),
        "accuracy vs query volume",
        (10_000.0, 45_000.0, 80_000.0, 115_000.0, 150_000.0, 185_000.0),
    ),
    "b": (
        ("dataset", "params", "n_neurons"),
        "accuracy vs dataset density",
        (40, 60, 80, 100, 120),
    ),
    "c": (("workload", "n_queries"), "accuracy vs sequence length", (5, 15, 25, 35, 45, 55)),
    "d": (
        ("workload", "window_ratio"),
        "accuracy vs prefetch window ratio",
        (0.1, 0.7, 1.3, 1.9, 2.5),
    ),
    "e": (
        ("prefetcher", "params", "grid_resolution"),
        "accuracy vs grid resolution",
        (32_768, 4_096, 512, 64, 8),
    ),
    "f": (("workload", "gap"), "accuracy vs gap distance", (10.0, 15.0, 20.0, 25.0)),
}


def _fig13_field(panel: str) -> tuple[str, ...]:
    if panel not in FIG13_PANELS:
        known = ", ".join(sorted(FIG13_PANELS))
        raise ValueError(f"unknown Fig-13 panel {panel!r}; known: {known}")
    return FIG13_PANELS[panel][0]


def fig13_matrix(
    panel: str,
    *,
    n_neurons: int | None = None,
    n_sequences: int | None = None,
    workload_seed: int = 13,
    axis: Sequence[Any] | None = None,
):
    """One Fig-13 panel as a declarative :class:`ExperimentMatrix`.

    Every panel fixes the §7.4 defaults and varies the one field its
    :data:`FIG13_PANELS` row names: (a) the query volume, (b) the
    dataset density (neuron count at fixed tissue extent), (c) the
    sequence length, (d) the prefetch-window ratio, (e) SCOUT's grid
    resolution, (f) the gap distance (where SCOUT-OPT joins SCOUT as a
    second prefetcher row).  ``axis`` overrides the paper's tick values,
    e.g. to truncate a panel for a smoke run.
    """
    section, *_, name = _fig13_field(panel)
    values = list(FIG13_PANELS[panel][2] if axis is None else axis)
    if not values:
        raise ValueError(f"panel {panel!r} axis must not be empty")

    datasets = (_tissue(n_neurons),)
    workloads = (_workload(n_sequences),)
    prefetchers = (PrefetcherSpec("scout"),)
    if section == "workload":
        workloads = tuple(_workload(n_sequences, **{name: value}) for value in values)
    elif section == "dataset":
        datasets = _dense_tissues(values, seed=13)
    else:
        prefetchers = tuple(PrefetcherSpec("scout", {name: int(value)}) for value in values)
    if panel == "f":
        prefetchers += (PrefetcherSpec("scout-opt"),)

    return ExperimentMatrix(
        datasets=datasets,
        indexes=(FLAT_INDEX,),
        workloads=workloads,
        prefetchers=prefetchers,
        seeds=(workload_seed,),
    )


def fig13_axis_value(panel: str, spec: Mapping[str, Any]):
    """The varying-axis value of one cell-spec dict of a Fig-13 panel.

    Used to label table columns when rendering stored sweep results.
    """
    value: Any = spec
    for name in _fig13_field(panel):
        value = value[name]
    return value


# -- the Fig-14 response-time breakdown ---------------------------------------------

#: Figure 14's x-axis: neuron counts at the fixed density extent.
FIG14_NEURONS: tuple[int, ...] = (40, 60, 80, 100)


def fig14_matrix(*, n_sequences: int | None = None, workload_seed: int = 14):
    """Figure 14: SCOUT's response-time breakdown vs dataset density.

    One SCOUT cell per tissue density at the §7.4 defaults; the stored
    metrics split each cell's time into residual I/O, graph building
    and prediction (traversal).
    """
    return ExperimentMatrix(
        datasets=_dense_tissues(FIG14_NEURONS, seed=14),
        indexes=(FLAT_INDEX,),
        workloads=(_workload(n_sequences),),
        prefetchers=(PrefetcherSpec("scout"),),
        seeds=(workload_seed,),
    )


# -- the Fig-10/11/12 microbenchmark grids ------------------------------------------

#: The standard prefetcher comparison set of Figure 11 (kind, params).
FIG11_PREFETCHERS: tuple[tuple[str, dict], ...] = (
    ("ewma", {"lam": 0.3}),
    ("straight-line", {}),
    ("hilbert", {}),
    ("scout", {}),
)

#: Figure 12 adds SCOUT-OPT, whose index-assisted gap traversal is the
#: point of the with-gap comparison.
FIG12_PREFETCHERS: tuple[tuple[str, dict], ...] = FIG11_PREFETCHERS + (("scout-opt", {}),)

#: Figure -> (Figure-10 rows, prefetcher set, workload seed).
_MICROBENCHMARK_GRIDS: dict[int, tuple[list[str], tuple[tuple[str, dict], ...], int]] = {
    10: (microbenchmark_names(), (("scout", {}),), 11),
    11: (microbenchmark_names(with_gaps=False), FIG11_PREFETCHERS, 11),
    12: (microbenchmark_names(with_gaps=True), FIG12_PREFETCHERS, 12),
}


def _microbenchmark_matrix(
    figure: int,
    *,
    benches: Sequence[str] | None = None,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] | None = None,
    n_neurons: int | None = None,
    n_sequences: int | None = None,
    workload_seed: int | None = None,
):
    """One row of :data:`_MICROBENCHMARK_GRIDS` as a matrix.

    ``benches`` restricts the figure's rows (e.g. for CI slices),
    ``prefetchers`` its comparison set.
    """
    figure_benches, figure_prefetchers, figure_seed = _MICROBENCHMARK_GRIDS[figure]
    benches = figure_benches if benches is None else list(benches)
    if not benches:
        raise ValueError("benches must name at least one microbenchmark")
    unknown = [name for name in benches if name not in MICROBENCHMARKS]
    if unknown:
        known = ", ".join(MICROBENCHMARKS)
        raise ValueError(f"unknown microbenchmark(s) {', '.join(unknown)}; known: {known}")
    return ExperimentMatrix(
        datasets=(_tissue(n_neurons),),
        indexes=(FLAT_INDEX,),
        workloads=tuple(
            _workload(
                n_sequences,
                n_queries=bench.n_queries,
                volume=bench.volume,
                gap=bench.gap,
                aspect=bench.aspect,
                window_ratio=bench.window_ratio,
            )
            for bench in map(MICROBENCHMARKS.__getitem__, benches)
        ),
        prefetchers=_prefetchers(figure_prefetchers if prefetchers is None else prefetchers),
        seeds=(figure_seed if workload_seed is None else workload_seed,),
    )


#: The whole Figure-10 registry under SCOUT alone: the grid behind the
#: paper's headline numbers, and the cheapest whole-registry smoke sweep.
fig10_matrix = partial(_microbenchmark_matrix, 10)

#: Figure 11: the no-gap microbenchmarks x the standard prefetchers.
fig11_matrix = partial(_microbenchmark_matrix, 11)

#: Figure 12: the with-gap microbenchmarks, with SCOUT-OPT added.
fig12_matrix = partial(_microbenchmark_matrix, 12)


# -- the Fig-17 applicability grid --------------------------------------------------

#: Panel letter -> (query-size regime, human title) of Figure 17.
FIG17_PANELS: dict[str, tuple[str, str]] = {
    "a": ("small", "applicability, small queries"),
    "b": ("large", "applicability, large queries"),
}

#: The §8.4 cross-domain datasets (kind -> generator params), ordered as
#: in the figure.  Laptop-scale stand-ins for the paper's lung airway
#: mesh (7.1M triangles), pig-heart arterial tree (2.1M cylinders) and
#: North-America road network (7.2M 2D segments).  The road grid must be
#: large enough that 25 large queries stay on the network: at
#: ``grid_size=12`` the walks leave it and every trajectory method
#: collapses (straight-line 2.7 %).
FIG17_DATASET_PARAMS: dict[str, dict[str, Any]] = {
    "lung": {"seed": 17, "max_depth": 4},
    "arterial": {"seed": 17},
    "roads": {"seed": 17, "grid_size": 20},
}

#: §8.4 sizes queries as a fraction of the dataset volume; small queries
#: are 5e-7 of it.  Synthetic stand-ins are orders of magnitude smaller
#: than the paper's datasets, so the small volume is floored at one that
#: returns a handful of objects, and the large regime is a fixed factor
#: above the small one so the two regimes stay distinct even when the
#: floor binds.
FIG17_SMALL_FRACTION = 5e-7
FIG17_LARGE_OVER_SMALL = 4.0


def fig17_query_volume(dataset: Any, regime: str) -> float:
    """The Fig-17 query volume (area for 2D data) of one built dataset."""
    if regime not in ("small", "large"):
        raise ValueError(f"regime must be 'small' or 'large', got {regime!r}")
    extent = dataset.bounds.extent
    if dataset.dims == 2:
        measure = float(extent[0] * extent[1])
    else:
        measure = float(extent[0] * extent[1] * extent[2])
    floor = 60.0 / max(dataset.density(), 1e-12)
    small = max(measure * FIG17_SMALL_FRACTION, floor)
    return small if regime == "small" else small * FIG17_LARGE_OVER_SMALL


def fig17_matrix(
    panel: str,
    *,
    datasets: Mapping[str, Mapping[str, Any]] | None = None,
    prefetchers: Sequence[tuple[str, Mapping[str, Any]]] = FIG11_PREFETCHERS,
    n_sequences: int | None = None,
    workload_seed: int = 17,
) -> list:
    """One Fig-17 panel: cross-domain datasets x standard prefetchers.

    Panel ``a`` uses the small query regime, ``b`` the large one.  Each
    dataset's query volume is derived from its own built extent and
    density (:func:`fig17_query_volume`), so the result is a *list of
    cells* -- the union of one single-workload matrix per dataset --
    rather than one cross-product matrix.  ``datasets`` overrides the
    generator parameters (e.g. to shrink the grid for smoke runs);
    building the datasets to size the queries goes through the runner's
    per-process memo, so a panel pair reuses one build per dataset.
    """
    if panel not in FIG17_PANELS:
        known = ", ".join(sorted(FIG17_PANELS))
        raise ValueError(f"unknown Fig-17 panel {panel!r}; known: {known}")
    regime, _ = FIG17_PANELS[panel]
    dataset_params = FIG17_DATASET_PARAMS if datasets is None else datasets
    if not dataset_params:
        raise ValueError("fig17_matrix needs at least one dataset")

    cells: list = []
    for kind, params in dataset_params.items():
        dataset_spec = DatasetSpec(kind, dict(params))
        volume = fig17_query_volume(cached_dataset(dataset_spec), regime)
        matrix = ExperimentMatrix(
            datasets=(dataset_spec,),
            indexes=(FLAT_INDEX,),
            workloads=(_workload(n_sequences, volume=volume),),
            prefetchers=_prefetchers(prefetchers),
            seeds=(workload_seed,),
        )
        cells.extend(matrix.cells())
    return cells


# -- the serving grids --------------------------------------------------------------

#: Concurrent-client counts of the serving sweep's x-axis.
SERVE_CLIENTS: tuple[int, ...] = (1, 2, 4, 8, 16)

#: The serving comparison set: the best trajectory baseline vs SCOUT.
SERVE_PREFETCHERS: tuple[tuple[str, dict], ...] = (
    ("ewma", {"lam": 0.3}),
    ("scout", {}),
)

#: Shared-cache capacities swept (``None`` = the engine's auto sizing,
#: ~12% of the dataset's pages; the small value models a cache under
#: heavy contention -- every client fights for the same few pages).
SERVE_CACHE_PAGES: tuple[int | None, ...] = (None, 128)

#: Client ``i`` joins this many ticks after client ``i-1``.
SERVE_STAGGER = 1

#: The three layer grids (chaos, tiers, shards) serve Zipf-skewed
#: ``hotspot`` fleets, so clients share pages and load skews; chaos and
#: tiers fix the fleet at this many clients.
LAYER_MODE = "hotspot"
LAYER_CLIENTS = 4


def _serving_cells(
    points: Iterable[tuple[int, tuple[str, Mapping[str, Any]], Mapping[str, Any]]],
    *,
    mode: str,
    n_neurons: int,
    workload_seed: int,
    n_queries: int | None = None,
) -> list:
    """Expand ``(n_clients, prefetcher, layers)`` points into serving cells.

    Everything the serving grids share lives here: one neuron tissue
    and FLAT index, one session per client (so the workload's
    ``n_sequences`` mirrors the fleet size), the §7.4 query defaults,
    and the ``serve`` mapping.  ``layers`` is the point's own
    contribution: the optional :class:`~repro.sim.runner.CellSpec`
    fields (``sim`` | ``faults`` | ``storage`` | ``shards``) its grid
    sweeps.  Cells come back in ``points`` order.
    """
    if n_queries is None:
        n_queries = SENSITIVITY_DEFAULTS.n_queries
    dataset = _tissue(n_neurons)
    return [
        CellSpec(
            dataset=dataset,
            index=FLAT_INDEX,
            workload=_workload(n_clients, n_queries=int(n_queries)),  # one session per client
            prefetcher=PrefetcherSpec(kind, dict(params)),
            seed=workload_seed,
            serve={"n_clients": n_clients, "mode": mode, "stagger": SERVE_STAGGER},
            **layers,
        )
        for n_clients, (kind, params), layers in points
    ]


def _client_counts(clients: Sequence[int]) -> list[int]:
    counts = [int(n) for n in clients]
    if not counts or any(n < 1 for n in counts):
        raise ValueError(f"clients must be positive ints, got {list(clients)!r}")
    return counts


def clients_matrix(
    *,
    clients: Sequence[int] = SERVE_CLIENTS,
    cache_pages: Sequence[int | None] = SERVE_CACHE_PAGES,
    mode: str = "independent",
    n_neurons: int = 40,
    n_queries: int | None = None,
    workload_seed: int = 21,
) -> list:
    """The client-scaling serving grid: clients x prefetchers x cache sizes.

    Every cell is a multi-client serving run (``serve`` mapping on the
    spec): N concurrent sessions take turns, one query per tick in
    client order, over one shared prefetch cache and disk, staggered by
    :data:`SERVE_STAGGER` ticks.  ``mode``
    picks the contention regime of
    :func:`repro.workload.multiclient.multiclient_sessions`
    (``independent`` walks vs Zipf-skewed ``hotspot`` sharing).  Cells
    order cache-size-major (then prefetcher, then client count) so each
    cache size renders as one table.  Returns a flat cell list, like
    :func:`fig17_matrix`, because the serving parameters vary per cell.
    """
    client_counts = _client_counts(clients)
    return _serving_cells(
        (
            (
                n,
                prefetcher,
                {"sim": {} if capacity is None else {"cache_capacity_pages": int(capacity)}},
            )
            for capacity in cache_pages
            for prefetcher in SERVE_PREFETCHERS
            for n in client_counts
        ),
        mode=mode,
        n_neurons=n_neurons,
        workload_seed=workload_seed,
        n_queries=n_queries,
    )


#: Fault intensities of the chaos sweep's x-axis: the headline
#: ``transient_rate``; corrupt and latency-spike rates ride at half of
#: it.  0.0 keeps the fault layer active but silent -- the degradation
#: baseline every other column is read against.  The ladder spans the
#: retry envelope: a read only *fails* after ``retry_limit + 1``
#: consecutive bad draws (probability ``rate**4`` at the defaults), so
#: 0.2 exercises pure retry/backoff pressure, 0.5 the first retry
#: exhaustions, and 0.7 sustained failure where the breaker earns its
#: keep.
CHAOS_RATES: tuple[float, ...] = (0.0, 0.2, 0.5, 0.7)

#: Seed of the chaos grid's fault streams (:class:`FaultPlan.seed`).
CHAOS_FAULT_SEED = 11


def chaos_matrix(
    *,
    breakers: Sequence[bool] = (True, False),
    n_neurons: int = 40,
    workload_seed: int = 21,
) -> list:
    """The graceful-degradation grid: fault rate x prefetcher x breaker.

    Every cell is a multi-client serving run under a
    :class:`~repro.storage.faults.FaultPlan` (a non-zero rate wraps the
    shared disk in a :class:`~repro.storage.faults.FaultyDiskModel`): the
    swept rate drives transient read errors, with torn-page corruption
    and latency spikes at half that rate, all drawn from seeded RNG
    streams so the grid is bit-identical across ``jobs=1``/``jobs=N``.
    The breaker axis toggles per-client circuit breaking (trip to
    demand paging after repeated prefetch-path failures), answering
    the sweep's question: how much hit rate does the prefetcher keep
    as the disk degrades, and does breaking early beat retrying?
    Cells order breaker-major (then prefetcher, then rate) so each
    breaker setting renders as one table.  Rate 0.0 cells carry the
    (inactive) fault plan too: the healthy baseline of each table, run
    on the bare disk with the fault counters (all zero) in its record.
    """
    return _serving_cells(
        (
            (
                LAYER_CLIENTS,
                prefetcher,
                {
                    "faults": {
                        "transient_rate": rate,
                        "corrupt_rate": rate / 2.0,
                        "latency_rate": rate / 2.0,
                        "seed": CHAOS_FAULT_SEED,
                        "breaker": bool(breaker),
                    }
                },
            )
            for breaker in breakers
            for prefetcher in SERVE_PREFETCHERS
            for rate in CHAOS_RATES
        ),
        mode=LAYER_MODE,
        n_neurons=n_neurons,
        workload_seed=workload_seed,
    )


#: Miss-path mechanisms of the tiers sweep's x-axis (the SimpleScalar
#: taxonomy: victim cache, miss cache, stream buffer, all combined);
#: ``none`` is the tier-cache-only baseline each mechanism is read
#: against.
TIER_MISS_PATHS: tuple[str, ...] = ("none", "victim", "miss", "stream", "combined")

#: Storage-side tier-cache capacities swept, in pages.  The small tier
#: thrashes, so the miss-path mechanisms decide what survives below it;
#: the large tier shows how much of their win capacity alone buys.
TIER_SIZES: tuple[int, ...] = (8, 64)


def tiers_matrix(
    *,
    tier_sizes: Sequence[int] = TIER_SIZES,
    n_neurons: int = 40,
    workload_seed: int = 21,
) -> list:
    """The tiered-storage grid: tier size x prefetcher x miss-path mechanism.

    Every cell is a multi-client serving run whose shared disk is
    wrapped in a :class:`~repro.storage.tiered.TieredStore` (DESIGN.md
    §9): a storage-side tier cache of the swept capacity over the
    ``ram`` backend, with the swept miss-path mechanism probing below
    it.  The grid answers the comparative question of the SimpleScalar
    taxonomy -- which mechanism absorbs the misses each prefetcher
    leaves behind, and at what tier size does raw capacity wash the
    mechanisms out?  Cells order tier-size-major (then prefetcher, then
    miss path) so each tier size renders as one table.  The tier
    structures are deterministic (LRU over the request order, no
    randomness), so the grid keeps the ``jobs=1``/``jobs=N``
    bit-identity contract.
    """
    return _serving_cells(
        (
            (
                LAYER_CLIENTS,
                prefetcher,
                {"storage": {"backend": "ram", "miss_path": path, "tier_pages": int(size)}},
            )
            for size in tier_sizes
            for prefetcher in SERVE_PREFETCHERS
            for path in TIER_MISS_PATHS
        ),
        mode=LAYER_MODE,
        n_neurons=n_neurons,
        workload_seed=workload_seed,
    )


#: Shard counts of the shards sweep: the unsharded baseline (K=1 is
#: the plain shared cache) against a small multi-node layout.
SHARD_COUNTS: tuple[int, ...] = (1, 4)

#: Partitioning schemes swept: Hilbert range splits (spatially
#: clustered clients land on few shards) vs hash scatter (uniform but
#: locality-blind, every batch fans out).
SHARD_PARTITIONS: tuple[str, ...] = ("hilbert", "hash")

#: Client counts of the shards sweep (hotspot mode, so load skews).
SHARD_CLIENTS: tuple[int, ...] = (4, 8)


def shards_matrix(
    *,
    partitions: Sequence[str] = SHARD_PARTITIONS,
    n_neurons: int = 40,
    workload_seed: int = 21,
) -> list:
    """The sharded-cache grid: clients x shard count x partition x policy.

    Every cell is a multi-client serving run whose shared prefetch
    cache is compiled into a :class:`~repro.storage.sharded.ShardedCache`
    (DESIGN.md §10): the total capacity range-partitioned along the
    page table's Hilbert keys or hash-scattered over page ids, with the
    hot-shard rebalancer off.  The grid answers the scale-out questions
    -- how skewed does per-shard load get under each partitioning, and
    what does sharding cost or buy each prefetch policy as the fleet
    grows?  Cells order partition-major (then clients, then prefetcher,
    then shard count) so each partition renders as one table group.
    Routing and eviction are deterministic, so the grid keeps the
    ``jobs=1``/``jobs=N`` bit-identity contract.
    """
    return _serving_cells(
        (
            (n, prefetcher, {"shards": {"n_shards": k, "partition": str(partition)}})
            for partition in partitions
            for n in SHARD_CLIENTS
            for prefetcher in SERVE_PREFETCHERS
            for k in SHARD_COUNTS
        ),
        mode=LAYER_MODE,
        n_neurons=n_neurons,
        workload_seed=workload_seed,
    )


# -- labelling stored cells back to their axes --------------------------------------


def microbenchmark_of(spec: Mapping[str, Any]) -> str | None:
    """The Figure-10 row a cell-spec dict's workload instantiates.

    Matches on the registry parameters (queries, volume, gap, aspect,
    window ratio; the sequence count is a harness knob, not part of the
    benchmark's identity).  Returns ``None`` for workloads that are not
    microbenchmark rows (e.g. Fig-13 sensitivity cells), so callers can
    label arbitrary stores.
    """
    workload = spec["workload"]
    for name, bench in MICROBENCHMARKS.items():
        if (
            int(workload["n_queries"]) == bench.n_queries
            and float(workload["volume"]) == bench.volume
            and float(workload["gap"]) == bench.gap
            and workload["aspect"] == bench.aspect
            and float(workload["window_ratio"]) == bench.window_ratio
        ):
            return name
    return None

