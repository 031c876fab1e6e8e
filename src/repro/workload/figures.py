"""The figure registry: every ``scout-repro sweep --figure`` grid as data.

:mod:`repro.workload.sweeps` builds the evaluation grids; this module
says how the command line exposes them.  :data:`FIGURES` holds one
:class:`Figure` per ``--figure`` value -- its default seed, the
figure-specific flags it takes, how parsed flags expand into labelled
groups of cells, how ``--list-cells`` annotates a cell, the
:class:`Table` set each group's stored results render as, and the
paper's reading of those tables as a checkable ``shape`` (DESIGN.md
§4).  The sweep command (:mod:`repro.cli`) is one generic path over
that table: it names no figure, so adding a grid is one builder in
``sweeps`` plus one entry here (DESIGN.md §6.2).
"""

from __future__ import annotations

from argparse import ArgumentTypeError
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.workload import sweeps

__all__ = ["FIGURES", "NOT_EVALUATED", "Figure", "Table"]


def _prefetcher_label(result) -> str:
    """Table row label for a cell: kind, plus the EWMA lambda or polynomial degree."""
    prefetcher = result.spec["prefetcher"]
    lam = prefetcher["params"].get("lam")
    if prefetcher["kind"] == "ewma" and lam is not None:
        return f"ewma-{lam:g}"
    if prefetcher["kind"] == "polynomial":
        return f"poly-{prefetcher['params'].get('degree', 2)}"
    return prefetcher["kind"]


def _hit_rate(result) -> float:
    return 100.0 * result.metrics.cache_hit_rate


def _shard_imbalance(result) -> float:
    # max/mean per-shard request load: 1.0 is perfectly even, K is
    # "one shard absorbs everything".  K=1 cells report 1.0.
    requests = result.metrics.shard_requests
    if not requests or sum(requests) == 0:
        return 1.0
    return max(requests) / (sum(requests) / len(requests))


@dataclass(frozen=True)
class Table:
    """One table a figure renders for each of its cell groups.

    The rendered title is ``"<figure.title> -- <table.title>"``.
    ``value_of`` maps a stored :class:`~repro.sim.results.CellResult`
    to the plotted number; ``figure_id`` keys the paper-shape note
    printed above the table.  ``title`` and ``figure_id`` are
    ``str.format`` templates, see :class:`Figure`.
    """

    title: str
    value_of: Callable[[Any], Any] = _hit_rate
    precision: int = 1
    figure_id: str = ""


@dataclass(frozen=True)
class Figure:
    """What ``scout-repro sweep --figure F`` needs to know about ``F``.

    ``seed`` is the default workload seed.  ``flags`` names the
    figure-specific sweep flags (argparse dests) it takes; the CLI
    rejects the rest.  ``grids(args)`` expands the parsed flags into
    ``[(label, cells)]``, one group per rendered table set, raising
    :class:`argparse.ArgumentTypeError` for a malformed flag value and
    :class:`ValueError` for a well-formed one that names nothing known.
    ``column_of(label, spec)`` is a cell's table column, ``row_of`` its
    row; ``axis`` is the ``--list-cells`` annotation, a template over
    that column (``col``) and the cell ``spec``.  ``title`` heads every
    table of a group; title templates see the group's ``label`` and, on
    panel figures, its ``panel`` entry (``panels`` maps label to
    ``(what the panel varies, human title, ...)``).  ``shape(label, tables)`` reads one
    group's rendered tables (in ``tables`` order) against the paper and
    returns the statements that do not hold -- empty when the shape
    holds; it never raises (see :func:`_shape`).  Grids the paper does
    not draw have none.
    """

    seed: int
    flags: tuple[str, ...]
    grids: Callable[[Any], list[tuple[str, list]]]
    axis: str
    column_of: Callable[[str, Mapping[str, Any]], Any]
    title: str
    tables: tuple[Table, ...]
    row_of: Callable[[Any], str] = _prefetcher_label
    panels: Mapping[str, tuple] = field(default_factory=dict)
    shape: Callable[[str, Sequence[Any]], list[str]] | None = None


# -- the paper's shapes (DESIGN.md §4) ----------------------------------------------

#: What a shape returns for a group it cannot read in full.
NOT_EVALUATED = "not evaluated (blank or missing cells)"

_BASELINES = ("ewma-0.3", "straight-line", "hilbert")


def _shape(claims: Callable[[str, Sequence[Any]], Iterable[tuple[str, bool]]]):
    """A :attr:`Figure.shape` out of ``claims(label, tables)``.

    ``claims`` yields ``(statement, holds)`` pairs; the shape returns
    the statements that do not hold.  A claim that reads a row, column
    or tick the group does not have -- a ``--shard`` slice, failed
    cells, ``--datasets lung`` -- raises :class:`LookupError`, which
    leaves the whole group :data:`NOT_EVALUATED` rather than judged on
    part of its cells.
    """

    def shape(label: str, tables: Sequence[Any]) -> list[str]:
        try:
            return [statement for statement, holds in claims(label, tables) if not holds]
        except LookupError:
            return [NOT_EVALUATED]

    return shape


def _row(table, label: str) -> dict[str, float]:
    """One complete row of a rendered table as ``{column: value}``."""
    values = table.row_values(label)
    if None in values:
        raise LookupError(f"blank cells in row {label!r}")
    return dict(zip(table.columns, values))


def _cells(table, label: str) -> list[float]:
    return list(_row(table, label).values())


@_shape
def _fig3_shape(label, tables):
    (hits,) = tables
    poly2, poly3 = _cells(hits, "poly-2"), _cells(hits, "poly-3")
    # Higher-degree polynomials oscillate ...
    yield "poly-3 is below poly-2 summed over the volumes", sum(poly3) < sum(poly2)
    # ... and accuracy degrades from small to large queries.
    for name in ("ewma-0.3", "straight-line"):
        cells = _cells(hits, name)
        yield f"{name} gains less than 10 points from the smallest to the largest volume", (
            cells[-1] < cells[0] + 10.0
        )


@_shape
def _fig11_shape(label, tables):
    hits, speedups = tables
    scout = _row(hits, "scout")
    for other in _BASELINES:
        theirs = _row(hits, other)
        wins = sum(scout[bench] >= theirs[bench] for bench in scout)
        yield f"SCOUT is at or above {other} on all but at most one benchmark", (
            wins >= len(scout) - 1
        )
    yield "SCOUT's lowest hit rate is above 55%", min(scout.values()) > 55.0
    yield "SCOUT's highest hit rate is above 85%", max(scout.values()) > 85.0
    yield "SCOUT's best speedup is above 5x", max(_cells(speedups, "scout")) > 5.0


@_shape
def _fig12_shape(label, tables):
    hits = tables[0]
    scout, opt = _row(hits, "scout"), _row(hits, "scout-opt")
    yield "SCOUT-OPT is within 1 point of SCOUT or above it on every gap benchmark", all(
        opt[bench] >= scout[bench] - 1.0 for bench in opt
    )
    for other in ("scout", *_BASELINES):
        yield f"SCOUT-OPT is above {other} summed over the gap benchmarks", (
            sum(opt.values()) > sum(_cells(hits, other))
        )


@_shape
def _fig13_shape(panel, tables):
    scout = _cells(tables[0], "scout")
    if panel == "a":
        yield "accuracy falls from the smallest to the largest query volume", scout[-1] < scout[0]
    elif panel == "b":
        yield "accuracy stays within 25 points as density grows", min(scout) > max(scout) - 25.0
        yield "accuracy stays above 50% at every density", min(scout) > 50.0
    elif panel == "c":
        # Iterative pruning pays off on long sequences.
        yield "the longest sequences beat the shortest", scout[-1] > scout[0]
    elif panel == "d":
        # The paper reports 29% -> 88%.
        yield "accuracy rises by more than 20 points across the window ratios", (
            scout[0] < scout[-1] - 20.0
        )
        yield "accuracy at the second ratio does not exceed the last", scout[1] <= scout[-1]
    elif panel == "e":
        yield "the two finest grid resolutions agree within 12 points", (
            abs(scout[0] - scout[1]) < 12.0
        )
    elif panel == "f":
        yield "SCOUT-OPT is at or above SCOUT summed over the gap distances", (
            sum(_cells(tables[0], "scout-opt")) >= sum(scout)
        )


@_shape
def _fig14_shape(label, tables):
    build, predict = (_cells(table, "scout") for table in tables[1:])
    # Modeling cost must not dominate, and its share must not grow
    # systematically with density (the paper's headline observation).
    yield "graph building stays below 45% of response at every density", max(build) < 45.0
    yield "prediction stays below 20% of response at every density", max(predict) < 20.0
    yield "the modeling share grows by less than 15 points from sparsest to densest", (
        build[-1] + predict[-1] < build[0] + predict[0] + 15.0
    )


@_shape
def _fig17_shape(panel, tables):
    (hits,) = tables
    scout = _row(hits, "scout")
    others = {name: _row(hits, name) for name in _BASELINES}
    if panel == "a":
        # The smooth arterial tree favours extrapolation; SCOUT must
        # stay competitive (paper: EWMA 96% vs SCOUT 90%).
        yield "SCOUT is within 25 points of EWMA on the arterial tree", (
            scout["arterial"] > others["ewma-0.3"]["arterial"] - 25.0
        )
    else:
        # Bends and bifurcations defeat extrapolation at large queries.
        # The floored small volume is already sizeable at synthetic
        # scale, which compresses the small/large contrast: SCOUT must
        # win roads outright and stay competitive elsewhere.
        best = {dataset: max(row[dataset] for row in others.values()) for dataset in scout}
        yield "SCOUT beats every baseline on roads", scout["roads"] > best["roads"]
        for dataset in ("lung", "arterial"):
            yield f"SCOUT is within 20 points of the best baseline on {dataset}", (
                scout[dataset] > best[dataset] - 20.0
            )


# -- flags -> grids -----------------------------------------------------------------


def _csv(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _chosen_panels(args, panels: Mapping[str, Any], figure: int) -> list[str]:
    chosen = list(panels) if args.panels is None else _csv(args.panels)
    if not chosen:
        raise ArgumentTypeError(f"--panels must name at least one Fig-{figure} panel")
    unknown = [p for p in chosen if p not in panels]
    if unknown:
        raise ValueError(f"unknown panel(s): {', '.join(unknown)} (expected {', '.join(panels)})")
    return chosen


def _fig3_grids(args) -> list[tuple[str, list]]:
    matrix = sweeps.fig3_matrix(
        n_neurons=args.neurons, n_sequences=args.sequences, workload_seed=args.seed
    )
    return [("fig3", matrix.cells())]


def _microbenchmark_grids(builder, label: str, args) -> list[tuple[str, list]]:
    matrix = builder(
        benches=None if args.benches is None else _csv(args.benches),
        n_neurons=args.neurons,
        n_sequences=args.sequences,
        workload_seed=args.seed,
    )
    return [(label, matrix.cells())]


def _fig13_grids(args) -> list[tuple[str, list]]:
    grids = []
    for panel in _chosen_panels(args, sweeps.FIG13_PANELS, 13):
        axis = list(sweeps.FIG13_PANELS[panel][2])
        if args.points is not None:
            axis = axis[: max(1, args.points)]
        if panel == "b" and args.neurons is not None:
            # Panel b's axis IS the neuron count; rescale it around the
            # requested size so --neurons shrinks this panel too instead
            # of being silently ignored.
            ratio = args.neurons / sweeps.SENSITIVITY_NEURONS
            axis = [max(2, int(round(n * ratio))) for n in axis]
        matrix = sweeps.fig13_matrix(
            panel,
            n_neurons=args.neurons,
            n_sequences=args.sequences,
            workload_seed=args.seed,
            axis=axis,
        )
        grids.append((panel, matrix.cells()))
    return grids


def _fig14_grids(args) -> list[tuple[str, list]]:
    matrix = sweeps.fig14_matrix(n_sequences=args.sequences, workload_seed=args.seed)
    return [("fig14", matrix.cells())]


def _fig17_grids(args) -> list[tuple[str, list]]:
    panels = _chosen_panels(args, sweeps.FIG17_PANELS, 17)
    datasets = None
    if args.datasets is not None:
        kinds = _csv(args.datasets)
        bad = [k for k in kinds if k not in sweeps.FIG17_DATASET_PARAMS]
        if bad or not kinds:
            known = ", ".join(sweeps.FIG17_DATASET_PARAMS)
            raise ValueError(f"unknown dataset(s): {', '.join(bad) or '(none)'} (expected {known})")
        datasets = {kind: sweeps.FIG17_DATASET_PARAMS[kind] for kind in kinds}
    return [
        (
            panel,
            sweeps.fig17_matrix(
                panel, datasets=datasets, n_sequences=args.sequences, workload_seed=args.seed
            ),
        )
        for panel in panels
    ]


def _serving_grids(builder, axis: str, groups: Sequence[tuple[Any, str]], args, **fixed):
    """One labelled group per value of the builder's ``axis``, so each renders as one table."""
    if args.neurons is not None:
        fixed["n_neurons"] = args.neurons
    return [
        (label, builder(**{axis: (value,)}, workload_seed=args.seed, **fixed))
        for value, label in groups
    ]


def _clients_grids(args) -> list[tuple[str, list]]:
    clients = list(sweeps.SERVE_CLIENTS)
    if args.clients is not None:
        try:
            clients = [int(c) for c in _csv(args.clients)]
        except ValueError:
            raise ArgumentTypeError(
                f"--clients must be comma-separated ints, got {args.clients!r}"
            ) from None
        if not clients or any(c < 1 for c in clients):
            raise ArgumentTypeError(f"--clients counts must be >= 1, got {args.clients!r}")

    cache_sizes: list = list(sweeps.SERVE_CACHE_PAGES)
    if args.cache_pages is not None:
        cache_sizes = []
        for item in _csv(args.cache_pages):
            if item == "auto":
                cache_sizes.append(None)
                continue
            try:
                pages = int(item)
            except ValueError:
                raise ArgumentTypeError(
                    f"--cache-pages entries must be ints or 'auto', got {item!r}"
                ) from None
            if pages < 1:
                raise ArgumentTypeError(f"--cache-pages sizes must be >= 1, got {item!r}")
            cache_sizes.append(pages)
        if not cache_sizes:
            raise ArgumentTypeError("--cache-pages must name at least one size")

    return _serving_grids(
        sweeps.clients_matrix,
        "cache_pages",
        [(pages, "auto" if pages is None else f"{pages} pages") for pages in cache_sizes],
        args,
        clients=clients,
        mode=args.contention,
    )


def _microbenchmark_figure(
    number: int, builder, seed: int, hit_id: str, speed_id: str = "", shape=None
):
    return Figure(
        seed=seed,
        flags=("benches", "neurons", "sequences"),
        grids=partial(_microbenchmark_grids, builder, f"fig{number}"),
        axis="bench={col}",
        column_of=lambda label, spec: sweeps.microbenchmark_of(spec) or "?",
        title=f"Fig {number} sweep",
        tables=(
            Table("cache hit rate [%]", figure_id=hit_id),
            Table("speedup vs no prefetching", lambda r: r.metrics.speedup, 2, speed_id),
        ),
        shape=shape,
    )


def _fig14_seconds(result) -> float:
    # residual I/O + graph building + traversal (prediction_seconds covers the last two)
    return result.metrics.response_seconds + result.metrics.prediction_seconds


def _fig14_build_share(result) -> float:
    return 100.0 * result.metrics.graph_build_seconds / _fig14_seconds(result)


def _fig14_prediction_share(result) -> float:
    metrics = result.metrics
    traversal = metrics.prediction_seconds - metrics.graph_build_seconds
    return 100.0 * traversal / _fig14_seconds(result)


#: ``--figure`` value -> its :class:`Figure`, in ``--help`` order.  The
#: sweep command is generic over this table (DESIGN.md §6.2).
FIGURES: dict[int | str, Figure] = {
    3: Figure(
        seed=31,
        flags=("neurons", "sequences"),
        grids=_fig3_grids,
        axis="volume={col:g}",
        column_of=lambda label, spec: spec["workload"]["volume"],
        title="Fig 3",
        tables=(Table("baseline accuracy vs query volume [hit %]", figure_id="fig3"),),
        shape=_fig3_shape,
    ),
    10: _microbenchmark_figure(10, sweeps.fig10_matrix, 11, "fig10sweep"),
    11: _microbenchmark_figure(11, sweeps.fig11_matrix, 11, "fig11a", "fig11b", _fig11_shape),
    12: _microbenchmark_figure(12, sweeps.fig12_matrix, 12, "fig12", shape=_fig12_shape),
    13: Figure(
        seed=13,
        flags=("panels", "points", "neurons", "sequences"),
        grids=_fig13_grids,
        axis="axis={col:g}",
        column_of=sweeps.fig13_axis_value,
        title="Fig 13{label}",
        tables=(Table("{panel[1]} [hit %]", figure_id="fig13{label}"),),
        row_of=lambda r: r.prefetcher_kind,
        panels=sweeps.FIG13_PANELS,
        shape=_fig13_shape,
    ),
    14: Figure(
        seed=14,
        flags=("sequences",),
        grids=_fig14_grids,
        axis="neurons={col}",
        column_of=lambda label, spec: spec["dataset"]["params"]["n_neurons"],
        title="Fig 14",
        tables=(
            Table("response time vs density [s, simulated]", _fig14_seconds, 3, "fig14"),
            Table("graph-build share of response [%]", _fig14_build_share),
            Table("prediction share of response [%]", _fig14_prediction_share),
        ),
        shape=_fig14_shape,
    ),
    17: Figure(
        seed=17,
        flags=("panels", "datasets", "sequences"),
        grids=_fig17_grids,
        axis="dataset={col}",
        column_of=lambda label, spec: spec["dataset"]["kind"],
        title="Fig 17{label}",
        tables=(Table("{panel[1]} [hit %]", figure_id="fig17{label}"),),
        panels=sweeps.FIG17_PANELS,
        shape=_fig17_shape,
    ),
    "clients": Figure(
        seed=21,
        flags=("clients", "cache_pages", "contention", "neurons"),
        grids=_clients_grids,
        axis="clients={col}",
        column_of=lambda label, spec: spec["serve"]["n_clients"],
        title="Serving sweep -- shared cache {label}",
        tables=(
            Table("aggregate hit rate [%]", figure_id="clients"),
            Table("per-client hit-rate std [%]", lambda r: 100.0 * r.metrics.hit_rate_std),
        ),
    ),
    "chaos": Figure(
        seed=21,
        flags=("neurons",),
        grids=partial(
            _serving_grids,
            sweeps.chaos_matrix,
            "breakers",
            ((True, "breaker on"), (False, "breaker off")),
        ),
        axis="rate={col:g}",
        column_of=lambda label, spec: spec["faults"]["transient_rate"],
        title="Chaos sweep -- {label}",
        tables=(
            Table("aggregate hit rate [%]", figure_id="chaos"),
            Table("degraded queries (demand paging)", lambda r: r.metrics.degraded_ticks or 0, 0),
        ),
    ),
    "tiers": Figure(
        seed=21,
        flags=("neurons",),
        grids=partial(
            _serving_grids,
            sweeps.tiers_matrix,
            "tier_sizes",
            [(size, f"tier {size} pages") for size in sweeps.TIER_SIZES],
        ),
        axis="miss-path={col}",
        column_of=lambda label, spec: spec["storage"]["miss_path"],
        title="Tiers sweep -- {label}",
        tables=(
            Table("aggregate hit rate [%]", figure_id="tiers"),
            Table(
                "tier + miss-path hits (absorbed reads)",
                lambda r: (r.metrics.tier_hits or 0) + (r.metrics.miss_path_hits or 0),
                0,
            ),
        ),
    ),
    "shards": Figure(
        seed=21,
        flags=("neurons",),
        grids=partial(
            _serving_grids,
            sweeps.shards_matrix,
            "partitions",
            [(scheme, f"partition {scheme}") for scheme in sweeps.SHARD_PARTITIONS],
        ),
        axis="K={col} {spec[shards][partition]}",
        column_of=lambda label, spec: spec["shards"]["n_shards"],
        title="Shards sweep -- {label}",
        tables=(
            Table("aggregate hit rate [%]", figure_id="shards"),
            Table("request imbalance (max/mean shard load)", _shard_imbalance, 2),
        ),
        row_of=lambda r: f"{_prefetcher_label(r)} x{r.spec['serve']['n_clients']}",
    ),
}
