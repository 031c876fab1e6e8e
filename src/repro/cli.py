"""Command-line entry point: experiment cells, parallel sweeps, the serving daemon.

Six forms::

    scout-repro [run] --prefetcher scout --benchmark adhoc_stat
    scout-repro sweep --figure 11 --jobs 4 --out results/fig11.jsonl
    scout-repro merge --out results/fig11.jsonl results/fig11.shard*.jsonl
    scout-repro compact results/fig11.jsonl
    scout-repro serve --port 8641 --report /tmp/serve-report.json
    scout-repro loadgen --port 8641 --requests 200 --rate 400 --seed 42

``run`` (the default when no subcommand is given, for backward
compatibility) executes one experiment cell on synthetic neuron tissue
and prints its headline numbers.

``sweep`` expands an evaluation grid into experiment cells.  Every
``--figure`` value is one entry of the registry in
:mod:`repro.workload.figures` -- ``3`` the motivation grid,
``10|11|12`` the microbenchmark grids (``--benches``), ``13`` (the
default) the sensitivity panels (``--panels``, ``--points``), ``14``
the response-time breakdown, ``17`` the cross-domain applicability
grid (``--panels a,b``, ``--datasets``), and the four serving grids:
``clients`` (client counts x prefetchers x shared-cache sizes;
``--clients``, ``--cache-pages``, ``--contention``), ``chaos`` (fault
rate x prefetcher x circuit breaker over a seeded faulty disk),
``tiers`` (prefetcher x miss-path mechanism x tier size over a
:class:`~repro.storage.tiered.TieredStore`) and ``shards`` (clients x
shard count x partition scheme x prefetcher over a
:class:`~repro.storage.sharded.ShardedCache`) -- and this module holds
one generic path over it: build the grids, filter to the shard, list or
run, render the entry's tables and, where the paper draws the figure,
print whether they keep its shape (``shape: holds`` or ``shape: differs
-- <statements>`` under each group; the exit code does not depend on
it, since smoke-size grids may differ).  A flag the entry does not list
is refused.  The cells fan out over ``--jobs`` worker processes; every
finished cell is persisted to a JSON-lines store keyed by the cell
spec's content hash, and the figure tables render from the stored
results.  Serving cells always run on the vectorized lockstep scheduler
(bit-identical to the round-robin reference, DESIGN.md §6.1).
Re-runs against the same ``--out`` file resume: successful cells in the
store are skipped (disable with ``--no-resume``); corrupt or stale
store lines are dropped and recomputed.  Fault tolerance: ``--timeout``
bounds each cell attempt's wall-clock seconds and ``--retries`` grants
extra attempts; a cell that still fails is recorded as a ``status:
failed|timeout`` envelope and the sweep carries on; a worker that dies
hard breaks the process pool, which is respawned with the in-flight
cells re-enqueued (counted as ``pool-crashes`` in the summary).
``--shard i/n`` restricts the run to the slice of cells whose spec-hash
lands in shard ``i`` of ``n``, writing ``<out-stem>.shardIofN.jsonl``
so independent hosts or CI jobs can sweep disjoint slices; ``merge``
unions shard stores back into one file.  ``--profile`` wraps every
computed cell in cProfile and dumps per-cell ``.prof`` files next to
the result store.

``compact`` rewrites result stores in place (atomic replace), dropping
corrupt, stale and superseded lines accumulated by long resumed sweeps
and reporting the bytes reclaimed.

``serve`` boots the open-loop asyncio serving daemon (DESIGN.md §8):
client connections speak a length-prefixed JSON protocol, each runs a
resumable :class:`~repro.sim.engine.QuerySession` against one shared
cache and disk, and the daemon reports p50/p99/p999 latency, throughput
and queue depth per interval, shedding load past ``--max-queue``.
``loadgen`` drives it with seeded open-loop Poisson or bursty arrivals
and writes the client-side latency report (``--shutdown`` drains the
daemon gracefully afterwards).
"""

from __future__ import annotations

import argparse
import sys

from repro.quickstart import PREFETCHER_NAMES, quick_experiment
from repro.storage.sharded import PARTITIONS
from repro.storage.tiered import MISS_PATHS, STORAGE_BACKENDS
from repro.workload import MICROBENCHMARKS

__all__ = ["main"]


def _build_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scout-repro",
        description="Run a SCOUT-reproduction experiment cell on synthetic neuron tissue.",
    )
    parser.add_argument("--prefetcher", choices=PREFETCHER_NAMES, default="scout")
    parser.add_argument(
        "--benchmark",
        choices=sorted(MICROBENCHMARKS),
        default="adhoc_stat",
        help="Figure-10 microbenchmark to run",
    )
    parser.add_argument("--neurons", type=int, default=40, help="tissue size in neurons")
    parser.add_argument("--sequences", type=int, default=5, help="query sequences to run")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--list", action="store_true", help="list benchmarks and exit")
    return parser


def _run_command(argv: list[str]) -> int:
    args = _build_run_parser().parse_args(argv)
    if args.list:
        for name, spec in MICROBENCHMARKS.items():
            print(
                f"{name:16s} {spec.label:42s} queries={spec.n_queries:3d} "
                f"volume={spec.volume:9.0f} gap={spec.gap:4.1f} ratio={spec.window_ratio:.1f}"
            )
        return 0

    result = quick_experiment(
        prefetcher=args.prefetcher,
        benchmark=args.benchmark,
        n_neurons=args.neurons,
        n_sequences=args.sequences,
        seed=args.seed,
    )
    print(f"prefetcher      : {result.prefetcher_name}")
    print(f"benchmark       : {args.benchmark}")
    print(f"sequences       : {result.metrics.n_sequences}")
    print(f"cache hit rate  : {100 * result.cache_hit_rate:.1f}%")
    print(f"speedup         : {result.speedup:.2f}x vs no prefetching")
    return 0


def _parse_shard(value: str) -> tuple[int, int]:
    """Parse ``i/n`` into a validated (shard_index, n_shards) pair."""
    try:
        index_text, _, count_text = value.partition("/")
        shard_index, n_shards = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"shard must look like i/n (e.g. 0/2), got {value!r}"
        ) from None
    if n_shards < 1 or not 0 <= shard_index < n_shards:
        raise argparse.ArgumentTypeError(
            f"shard index must be in [0, n_shards), got {value!r}"
        )
    return shard_index, n_shards


#: Figure-specific sweep flag (argparse dest) -> the error answered when
#: it is set for a figure whose registry entry does not list it.
_FOREIGN_FLAG_ERRORS = {
    "benches": "--benches applies to --figure 10|11|12; use --panels for Figs 13/17",
    "panels": "--panels applies to --figure 13|17, not --figure {figure}",
    "points": "--points applies to --figure 13, not --figure {figure}",
    "datasets": "--datasets applies to --figure 17, not --figure {figure}",
    "neurons": "--neurons applies to the neuron-tissue grids "
    "(figures 3, 10-13, clients, chaos, tiers, shards)",
    "clients": "--clients applies to --figure clients, not --figure {figure}",
    "cache_pages": "--cache-pages applies to --figure clients, not --figure {figure}",
    "contention": "--contention applies to --figure clients, not --figure {figure}",
    "sequences": "--sequences does not apply to --figure {figure} (each client runs one session)",
}


def _build_sweep_parser(figures) -> argparse.ArgumentParser:
    """The sweep parser over a figure registry (``--figure`` value -> entry)."""

    def parse_figure(value: str):
        """``--figure`` value: a figure number, or a named grid."""
        if value in figures:
            return value
        try:
            return int(value)
        except ValueError:
            names = "|".join(str(name) for name in figures)
            raise argparse.ArgumentTypeError(f"figure must be {names}, got {value!r}") from None

    parser = argparse.ArgumentParser(
        prog="scout-repro sweep",
        description="Run an evaluation grid (paper Figs 3/10-14/17, or a "
        "multi-client serving grid) as a parallel, fault-tolerant, "
        "resumable experiment sweep.",
    )
    parser.add_argument(
        "--figure",
        type=parse_figure,
        choices=list(figures),
        default=13,
        help="which evaluation grid to sweep: the Fig-3 motivation grid "
        "(trajectory baselines x query volume), the Fig-10 microbenchmark "
        "registry, the Fig-11 no-gap or Fig-12 with-gap comparison grids, "
        "the Fig-13 sensitivity panels (default), the Fig-14 response-time "
        "breakdown (SCOUT x tissue density), the Fig-17 "
        "cross-domain applicability grid (lung/arterial/roads), the "
        "'clients' grid (N concurrent sessions over one shared cache), "
        "the 'chaos' grid (serving under an injected-fault disk: "
        "fault rate x prefetcher x circuit breaker on/off), the "
        "'tiers' grid (serving over a tiered store: prefetcher x "
        "miss-path mechanism x tier size), or the 'shards' grid "
        "(serving over a partitioned cache: clients x shard count x "
        "partition scheme x prefetcher)",
    )
    parser.add_argument(
        "--panels",
        default=None,
        help="comma-separated panel letters (--figure 13: a-f, default all "
        "six; --figure 17: a=small queries, b=large queries, default both)",
    )
    parser.add_argument(
        "--datasets",
        default=None,
        help="comma-separated Fig-17 dataset kinds restricting the grid "
        "(lung, arterial, roads; default: all three; --figure 17 only)",
    )
    parser.add_argument(
        "--benches",
        default=None,
        help="comma-separated microbenchmark names restricting a Fig-10/11/12 "
        "grid (default: every row of the figure)",
    )
    parser.add_argument(
        "--clients",
        default=None,
        help="comma-separated concurrent-client counts restricting the "
        "serving grid (default 1,2,4,8,16; --figure clients only)",
    )
    parser.add_argument(
        "--cache-pages",
        default=None,
        help="comma-separated shared-cache sizes in pages ('auto' for the "
        "engine's default sizing; default auto,128; --figure clients only)",
    )
    parser.add_argument(
        "--contention",
        choices=["independent", "hotspot"],
        default="independent",
        help="serving workload regime: independent walks per client, or "
        "Zipf-skewed hot-region sharing (--figure clients only)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument(
        "--out",
        default=None,
        help="JSON-lines result store (appended; enables resume; default "
        "results/fig<figure>_sweep.jsonl)",
    )
    parser.add_argument(
        "--shard",
        type=_parse_shard,
        default=None,
        metavar="I/N",
        help="run only the cells whose spec-hash lands in shard I of N, "
        "writing <out-stem>.shardIofN.jsonl (merge slices with "
        "'scout-repro merge')",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell attempt; an exceeded cell is "
        "retried, then recorded as status=timeout",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="extra attempts granted to a crashing or timed-out cell "
        "before recording a failure envelope (default: 1)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="recompute every cell even when the store already has it",
    )
    parser.add_argument(
        "--neurons",
        type=int,
        default=None,
        help="tissue size in neurons (panel b rescales its density axis around this)",
    )
    parser.add_argument("--sequences", type=int, default=None, help="sequences per cell")
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (default: the figure's own -- 13 for Fig 13, "
        "14 for Fig 14, 17 for Fig 17, 31 for Fig 3, 11/11/12 for Figs "
        "10/11/12, 21 for the serving grids)",
    )
    parser.add_argument(
        "--points",
        type=int,
        default=None,
        help="truncate each panel axis to its first N tick values",
    )
    parser.add_argument(
        "--list-cells",
        action="store_true",
        help="print the cell grid (spec key + axis point) and exit",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run each computed cell under cProfile; dump per-cell .prof "
        "files into <out>.profiles/ next to the result store",
    )
    return parser


def _sweep_command(argv: list[str]) -> int:
    from repro.analysis import sweep_table
    from repro.sim import ParallelRunner, ResultStore, ShardedResultStore, shard_of
    from repro.workload.figures import FIGURES

    parser = _build_sweep_parser(FIGURES)
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.timeout is not None and args.timeout <= 0:
        parser.error(f"--timeout must be positive, got {args.timeout}")
    figure = FIGURES[args.figure]
    # Refuse mixed-figure flags loudly: running the wrong (possibly
    # much larger) grid is worse than an argparse error.
    for flag, message in _FOREIGN_FLAG_ERRORS.items():
        if flag not in figure.flags and getattr(args, flag) != parser.get_default(flag):
            parser.error(message.format(figure=args.figure))
    if args.seed is None:
        args.seed = figure.seed
    figure_stem = args.figure if isinstance(args.figure, str) else f"fig{args.figure}"
    out = args.out if args.out is not None else f"results/{figure_stem}_sweep.jsonl"

    try:
        grids = figure.grids(args)
    except argparse.ArgumentTypeError as malformed:
        parser.error(str(malformed))
    except ValueError as unknown:
        print(unknown)
        return 2

    if args.shard is not None:
        shard_index, n_shards = args.shard
        grids = [
            (label, [c for c in cells if shard_of(c.key(), n_shards) == shard_index])
            for label, cells in grids
        ]

    all_cells = [cell for _, cells in grids for cell in cells]
    if args.list_cells:
        for label, cells in grids:
            for cell in cells:
                spec = cell.to_dict()
                axis = figure.axis.format(col=figure.column_of(label, spec), spec=spec)
                print(f"{label}  {cell.key()[:12]}  {cell.prefetcher.kind:10s} {axis}")
        suffix = "" if args.shard is None else f" (shard {args.shard[0]}/{args.shard[1]})"
        print(f"{len(all_cells)} cells{suffix}")
        return 0

    store = ResultStore(out) if args.shard is None else ShardedResultStore(out, *args.shard)
    store.load()
    n_corrupt, n_stale = store.n_corrupt, store.n_stale
    profile_dir = f"{out}.profiles" if args.profile else None
    runner = ParallelRunner(
        jobs=args.jobs,
        store=store,
        profile_dir=profile_dir,
        timeout=args.timeout,
        retries=args.retries,
    )
    report = runner.run(all_cells, resume=not args.no_resume)

    # ``report.results`` is cell-parallel to ``all_cells``: each group's
    # results are the next ``len(cells)`` entries.
    offset = 0
    for label, cells in grids:
        group = [r for r in report.results[offset : offset + len(cells)] if r.ok]
        offset += len(cells)
        tables = [
            sweep_table(
                f"{figure.title} -- {table.title}".format(
                    label=label, panel=figure.panels.get(label)
                ),
                group,
                column_of=lambda r: figure.column_of(label, r.spec),
                row_of=figure.row_of,
                value_of=table.value_of,
                figure_id=table.figure_id.format(label=label),
                precision=table.precision,
            )
            for table in figure.tables
        ]
        for table in tables:
            table.print()
        if figure.shape is not None:
            differs = figure.shape(label, tables)
            print("shape: " + (f"differs -- {'; '.join(differs)}" if differs else "holds"))

    shard_note = "" if args.shard is None else f"  shard {args.shard[0]}/{args.shard[1]}"
    print()
    print(
        f"cells {len(all_cells)}  computed {report.n_computed}  "
        f"failed {report.n_failed}  resumed {report.n_skipped}  "
        f"corrupt-dropped {n_corrupt}  stale-dropped {n_stale}  "
        f"pool-crashes {report.pool_crashes}  "
        f"jobs {args.jobs}{shard_note}  elapsed {report.elapsed_seconds:.1f}s"
    )
    for result in report.results:
        if not result.ok:
            print(
                f"  {result.status:7s} {result.key[:12]}  "
                f"attempts={result.attempts}  {result.error}"
            )
    print(f"store: {store.path}")
    if profile_dir is not None:
        print(f"profiles: {profile_dir}")
    return 0


def _build_merge_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scout-repro merge",
        description="Union sharded (or partial) sweep stores into one store.",
    )
    parser.add_argument("inputs", nargs="+", help="shard store files to union")
    parser.add_argument(
        "--out",
        required=True,
        help="merged JSON-lines store (atomically replaced; may be one of "
        "the inputs)",
    )
    return parser


def _merge_command(argv: list[str]) -> int:
    from repro.sim import merge_stores

    args = _build_merge_parser().parse_args(argv)
    try:
        report = merge_stores(args.inputs, args.out)
    except ValueError as error:
        print(f"merge failed: {error}")
        return 2
    for path in report.missing_inputs:
        print(f"warning: input store {path} does not exist (empty shard, or a typo?)")
    print(
        f"merged {report.n_cells} cells from {report.n_inputs} stores -> {report.out_path}  "
        f"(corrupt-dropped {report.n_corrupt}  stale-dropped {report.n_stale}  "
        f"conflicts {len(report.conflict_keys)}  missing-inputs {len(report.missing_inputs)})"
    )
    return 0


def _build_compact_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scout-repro compact",
        description="Rewrite result stores in place (atomic replace), dropping "
        "corrupt, stale and superseded lines and reporting reclaimed bytes.",
    )
    parser.add_argument("stores", nargs="+", help="JSON-lines result stores to compact")
    return parser


def _compact_command(argv: list[str]) -> int:
    from pathlib import Path

    from repro.sim import ResultStore

    args = _build_compact_parser().parse_args(argv)
    code = 0
    for store_path in args.stores:
        path = Path(store_path)
        if not path.exists():
            print(f"compact failed: {path} does not exist")
            code = 2
            continue
        report = ResultStore(path).compact()
        print(
            f"{path}: kept {report.n_kept} cells  dropped corrupt {report.n_corrupt} "
            f"stale {report.n_stale} superseded {report.n_superseded}  "
            f"reclaimed {report.reclaimed_bytes} bytes "
            f"({report.bytes_before} -> {report.bytes_after})"
        )
    return code


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scout-repro serve",
        description="Serve QuerySessions over TCP (length-prefixed JSON "
        "protocol) with latency-percentile reporting and admission control.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8641, help="TCP port (0 picks an ephemeral port)"
    )
    parser.add_argument("--neurons", type=int, default=16, help="tissue size in neurons")
    parser.add_argument("--prefetcher", choices=PREFETCHER_NAMES, default="ewma")
    parser.add_argument(
        "--pool",
        type=int,
        default=8,
        help="distinct navigation walks; connection i replays walk i mod pool",
    )
    parser.add_argument(
        "--queries-per-session",
        type=int,
        default=20,
        help="queries per session (an exhausted session renews in place)",
    )
    parser.add_argument(
        "--mode",
        choices=["independent", "hotspot"],
        default="hotspot",
        help="session-pool contention regime",
    )
    parser.add_argument(
        "--cache-pages",
        type=int,
        default=None,
        help="shared cache capacity in pages (default: the engine's sizing rule)",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=64,
        help="admission bound: queries queued beyond this are shed",
    )
    parser.add_argument(
        "--report-interval",
        type=float,
        default=5.0,
        help="seconds between interval latency reports on stdout",
    )
    parser.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the final JSON report here on graceful shutdown",
    )
    parser.add_argument("--seed", type=int, default=21, help="workload (and fault) seed")
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="transient-read fault rate; > 0 serves through a seeded "
        "FaultyDiskModel with per-client circuit breakers",
    )
    parser.add_argument(
        "--storage",
        choices=sorted(STORAGE_BACKENDS),
        default="ram",
        help="page-store backend behind the cache: 'ram' keeps the "
        "analytic DiskModel only; 'mmap' backs it with a real on-disk "
        "page file (checksummed slots, torn-write detection)",
    )
    parser.add_argument(
        "--miss-path",
        choices=list(MISS_PATHS),
        default="none",
        help="miss-path mechanism between the cache and the backing "
        "store (DESIGN.md §9)",
    )
    parser.add_argument(
        "--tier-pages",
        type=int,
        default=0,
        help="second-tier cache capacity in pages (0 disables the tier)",
    )
    parser.add_argument(
        "--pagefile",
        default=None,
        metavar="PATH",
        help="page-file path for --storage mmap (reused if it exists; "
        "default: a fresh temp file, removed at shutdown)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="cache shard count: 0 or 1 keeps the single unsharded cache, "
        "K > 1 routes every touch through a partitioned cache of K "
        "shards (DESIGN.md §10)",
    )
    parser.add_argument(
        "--partition",
        choices=list(PARTITIONS),
        default="hilbert",
        help="shard partition scheme: 'hilbert' range-partitions page "
        "Hilbert keys, 'hash' spreads pages round-robin (--shards >= 2 "
        "only)",
    )
    return parser


def _serve_command(argv: list[str]) -> int:
    import asyncio

    from repro.serve import DaemonConfig, ServeDaemon

    parser = _build_serve_parser()
    args = parser.parse_args(argv)
    if args.max_queue < 1:
        parser.error(f"--max-queue must be >= 1, got {args.max_queue}")
    if args.pool < 1:
        parser.error(f"--pool must be >= 1, got {args.pool}")
    if not 0.0 <= args.fault_rate <= 1.0:
        parser.error(f"--fault-rate must be within [0, 1], got {args.fault_rate}")
    if args.tier_pages < 0:
        parser.error(f"--tier-pages must be >= 0, got {args.tier_pages}")
    if args.pagefile is not None and args.storage != "mmap":
        parser.error("--pagefile applies to --storage mmap only")
    if args.shards < 0:
        parser.error(f"--shards must be >= 0, got {args.shards}")
    config = DaemonConfig(
        host=args.host,
        port=args.port,
        n_neurons=args.neurons,
        seed=args.seed,
        prefetcher=args.prefetcher,
        session_pool=args.pool,
        queries_per_session=args.queries_per_session,
        mode=args.mode,
        cache_pages=args.cache_pages,
        max_queue=args.max_queue,
        report_interval=args.report_interval,
        report_path=args.report,
        fault_rate=args.fault_rate,
        storage=args.storage,
        miss_path=args.miss_path,
        tier_pages=args.tier_pages,
        pagefile=args.pagefile,
        shards=args.shards,
        partition=args.partition,
    )
    daemon = ServeDaemon(config)
    try:
        asyncio.run(daemon.run_async())
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


def _build_loadgen_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scout-repro loadgen",
        description="Drive a running serve daemon with seeded open-loop "
        "arrivals and report client-observed latency percentiles.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8641)
    parser.add_argument("--connections", type=int, default=4)
    parser.add_argument(
        "--process",
        choices=["poisson", "bursty"],
        default="poisson",
        help="arrival process (bursty = on/off Markov-modulated Poisson)",
    )
    parser.add_argument("--rate", type=float, default=200.0, help="arrivals per second")
    parser.add_argument(
        "--requests", type=int, default=None, help="total requests (fixed count)"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="schedule horizon in seconds (count then derives from the seed)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--burst", type=float, default=8.0, help="ON-phase rate multiplier (bursty only)"
    )
    parser.add_argument(
        "--out", default=None, metavar="PATH", help="write the JSON report here"
    )
    parser.add_argument(
        "--shutdown",
        action="store_true",
        help="gracefully drain the daemon after the load completes",
    )
    return parser


def _loadgen_command(argv: list[str]) -> int:
    import asyncio
    import json

    from repro.serve import run_loadgen

    parser = _build_loadgen_parser()
    args = parser.parse_args(argv)
    if args.connections < 1:
        parser.error(f"--connections must be >= 1, got {args.connections}")
    if (args.requests is None) == (args.duration is None):
        parser.error("give exactly one of --requests and --duration")
    if args.rate <= 0:
        parser.error(f"--rate must be positive, got {args.rate}")
    try:
        report = asyncio.run(
            run_loadgen(
                args.host,
                args.port,
                connections=args.connections,
                process=args.process,
                rate=args.rate,
                requests=args.requests,
                duration=args.duration,
                seed=args.seed,
                burst=args.burst,
                shutdown=args.shutdown,
            )
        )
    except (ConnectionError, OSError) as error:
        print(f"loadgen failed: {error}")
        return 2
    latency = report["latency"]
    print(
        f"loadgen: {report['requests']} requests ({report['process']}, "
        f"rate {report['offered_rate']:g}/s, seed {report['seed']})  "
        f"ok {report['ok']}  shed {report['shed']}  errors {report['errors']}"
    )
    print(
        f"latency: p50 {latency['p50_ms']:.2f}ms  p99 {latency['p99_ms']:.2f}ms  "
        f"p999 {latency['p999_ms']:.2f}ms  max {latency['max_ms']:.2f}ms  "
        f"achieved {report['achieved_qps']:,.0f} q/s"
    )
    if report["drained"] is not None:
        print(f"drained: {report['drained']}")
    if args.out is not None:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "sweep":
        return _sweep_command(argv[1:])
    if argv and argv[0] == "merge":
        return _merge_command(argv[1:])
    if argv and argv[0] == "compact":
        return _compact_command(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_command(argv[1:])
    if argv and argv[0] == "loadgen":
        return _loadgen_command(argv[1:])
    if argv and argv[0] == "run":
        argv = argv[1:]
    return _run_command(argv)


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    sys.exit(main())
