"""Parallel experiment orchestration over declarative cell grids.

The paper's evaluation (§7, Figs 10-17) is a grid of *experiment cells*
-- (dataset, index, workload, prefetcher, seed) -- that the seed repo
ran as hand-rolled serial loops.  This module makes the grid a value:

* :class:`DatasetSpec` / :class:`IndexSpec` / :class:`WorkloadSpec` /
  :class:`PrefetcherSpec` name one axis point each.  They are small
  picklable descriptions (kind + scalar params), **not** live objects:
  nothing heavy ever crosses a process boundary.
* :class:`CellSpec` combines one point per axis.  Its canonical-JSON
  SHA-256 (:meth:`CellSpec.key`) is the identity used by the persisted
  :class:`~repro.sim.results.ResultStore` for resume-from-store.
* :class:`ExperimentMatrix` is the cross product of axis lists and
  yields cells in a deterministic order.
* :class:`ParallelRunner` fans cells out over a ``concurrent.futures``
  process pool.  Workers rebuild dataset/index from the spec (with a
  small per-process memo so sibling cells share the build) and run
  :func:`repro.sim.experiment.run_experiment`, the single-cell
  primitive.

Determinism: a cell's metrics depend only on its spec -- the dataset
builder, sequence generator and prefetchers are all explicitly seeded
from spec fields, and cells share no mutable state -- so ``jobs=1`` and
``jobs=N`` produce bit-identical metrics, and a resumed run is
indistinguishable from a fresh one.

Fault tolerance: a sweep is only as strong as its weakest cell, so the
runner bounds every attempt.  ``timeout`` arms a wall-clock limit
around each cell (delivered via ``SIGALRM`` *inside* the process
running it, so it fires for serial and pooled cells alike), ``retries``
grants a bounded number of fresh attempts, and a cell that still fails
is recorded in the store as a ``status: failed`` / ``status: timeout``
envelope -- the sweep carries on, and the next resume retries exactly
the failed cells.  A worker that dies *hard* (OOM kill, segfault,
``os._exit``) breaks the whole process pool; the runner respawns the
executor, re-enqueues every in-flight cell with one attempt charged
(the culprit is indistinguishable from its siblings, and the charge is
what bounds a crash-looping cell), and counts the event in
:attr:`RunReport.pool_crashes`.
"""

from __future__ import annotations

import cProfile
import contextlib
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.baselines import (
    EWMAPrefetcher,
    HilbertPrefetcher,
    LayeredPrefetcher,
    NoPrefetcher,
    OraclePrefetcher,
    PolynomialPrefetcher,
    StraightLinePrefetcher,
    VelocityPrefetcher,
)
from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher
from repro.datagen import (
    make_arterial_tree,
    make_lung_airways,
    make_neuron_tissue,
    make_road_network,
)
from repro.index import FlatIndex, GridIndex, STRTree
from repro.sim.engine import SimulationConfig
from repro.sim.experiment import run_experiment
from repro.sim.results import (
    STATUS_FAILED,
    STATUS_TIMEOUT,
    CellResult,
    ResultStore,
    canonical_json,
    cell_key,
)
from repro.storage.disk import DiskParameters
from repro.storage.faults import FAULT_PREFETCHER_BUILDERS, FaultPlan
from repro.storage.sharded import ShardSpec
from repro.storage.tiered import StorageSpec
from repro.workload.multiclient import multiclient_sessions
from repro.workload.sequence import generate_sequences

__all__ = [
    "CellSpec",
    "CellTimeoutError",
    "DatasetSpec",
    "ExperimentMatrix",
    "IndexSpec",
    "ParallelRunner",
    "PrefetcherSpec",
    "RunReport",
    "WorkloadSpec",
    "cached_dataset",
    "prepare_cell",
    "prepare_serving_cell",
    "profiled_run_cell",
    "run_cell",
    "run_serving_cell",
]


# -- axis specs --------------------------------------------------------------------

_DATASET_BUILDERS: dict[str, Callable[..., Any]] = {
    "neuron": make_neuron_tissue,
    "arterial": make_arterial_tree,
    "lung": make_lung_airways,
    "roads": make_road_network,
}

_INDEX_BUILDERS: dict[str, Callable[..., Any]] = {
    "flat": FlatIndex,
    "rtree": STRTree,
    "grid": GridIndex,
}

_PREFETCHER_BUILDERS: dict[str, Callable[..., Any]] = {
    "scout": lambda ds, ix, p: ScoutPrefetcher(ds, ScoutConfig(**p)),
    "scout-opt": lambda ds, ix, p: ScoutOptPrefetcher(ds, ix, ScoutConfig(**p)),
    "ewma": lambda ds, ix, p: EWMAPrefetcher(**p),
    "straight-line": lambda ds, ix, p: StraightLinePrefetcher(**p),
    "velocity": lambda ds, ix, p: VelocityPrefetcher(**p),
    "polynomial": lambda ds, ix, p: PolynomialPrefetcher(**p),
    "hilbert": lambda ds, ix, p: HilbertPrefetcher(ds, **p),
    "layered": lambda ds, ix, p: LayeredPrefetcher(ds, **p),
    "none": lambda ds, ix, p: NoPrefetcher(),
    "oracle": lambda ds, ix, p: OraclePrefetcher(),
    # Fault-injection kinds (``_sleep`` / ``_fail`` / ``_exit``) for the
    # orchestrator's own test surface, consolidated in the faults module
    # under their historical names.
    **FAULT_PREFETCHER_BUILDERS,
}


@dataclass(frozen=True)
class DatasetSpec:
    """A dataset generator call: kind + scalar keyword params."""

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _DATASET_BUILDERS:
            known = ", ".join(sorted(_DATASET_BUILDERS))
            raise ValueError(f"unknown dataset kind {self.kind!r}; known: {known}")

    def build(self):
        return _DATASET_BUILDERS[self.kind](**dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}


@dataclass(frozen=True)
class IndexSpec:
    """A spatial-index build over the cell's dataset."""

    kind: str = "flat"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _INDEX_BUILDERS:
            known = ", ".join(sorted(_INDEX_BUILDERS))
            raise ValueError(f"unknown index kind {self.kind!r}; known: {known}")

    def build(self, dataset):
        return _INDEX_BUILDERS[self.kind](dataset, **dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}


@dataclass(frozen=True)
class WorkloadSpec:
    """Guided-sequence generation parameters (paper Fig 10 columns)."""

    n_sequences: int
    n_queries: int
    volume: float
    gap: float = 0.0
    aspect: str = "cube"
    window_ratio: float = 1.0

    def to_dict(self) -> dict[str, Any]:
        # Numeric coercion keeps the canonical JSON (and hence the cell
        # key) stable between e.g. volume=80000 and volume=80000.0.
        return {
            "n_sequences": int(self.n_sequences),
            "n_queries": int(self.n_queries),
            "volume": float(self.volume),
            "gap": float(self.gap),
            "aspect": self.aspect,
            "window_ratio": float(self.window_ratio),
        }


@dataclass(frozen=True)
class PrefetcherSpec:
    """A prefetcher construction: kind + constructor params.

    ``scout`` / ``scout-opt`` params are :class:`ScoutConfig` fields;
    baseline params are their constructor keywords (e.g. ``lam`` for
    ``ewma``).
    """

    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _PREFETCHER_BUILDERS:
            known = ", ".join(sorted(_PREFETCHER_BUILDERS))
            raise ValueError(f"unknown prefetcher kind {self.kind!r}; known: {known}")

    def build(self, dataset, index):
        return _PREFETCHER_BUILDERS[self.kind](dataset, index, dict(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}


#: :class:`CellSpec` mappings serialized only when non-empty, so cells
#: that predate (or do not use) a layer keep their content hash.
_ADDITIVE_SPEC_FIELDS = ("serve", "faults", "storage", "shards")


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell, fully declarative and picklable.

    ``seed`` feeds :func:`generate_sequences`, which derives one child
    RNG per sequence -- per-cell seeding is therefore deterministic and
    independent of which worker runs the cell or in what order.
    ``sim`` holds :class:`SimulationConfig` overrides (with an optional
    nested ``"disk"`` dict of :class:`DiskParameters` fields).

    ``serve`` turns the cell into a *multi-client serving* cell: when
    non-empty, the cell runs N concurrent client sessions over one
    shared cache and disk (:class:`~repro.sim.serve.ServingSimulator`)
    instead of one prefetcher over independent sequences.  Recognized
    keys: ``n_clients`` (required), ``mode``
    (``independent``/``hotspot``), ``stagger``, ``hot_pool``,
    ``zipf_s`` -- see :func:`repro.workload.multiclient.multiclient_sessions`.
    Serialization omits an empty ``serve``, so every pre-existing cell
    keeps its content hash (and its stored results).

    The three layer mappings hold field overrides of their spec class
    and are omitted from serialization when empty, exactly like
    ``serve``, so cells without the layer keep their content hash:
    ``faults`` (:class:`~repro.storage.faults.FaultPlan`) wraps the
    cell's disk in a :class:`~repro.storage.faults.FaultyDiskModel`
    (DESIGN.md §7); ``storage``
    (:class:`~repro.storage.tiered.StorageSpec`) wraps it in a
    :class:`~repro.storage.tiered.TieredStore` (§9); ``shards``
    (:class:`~repro.storage.sharded.ShardSpec`) compiles the prefetch
    cache into a :class:`~repro.storage.sharded.ShardedCache` (§10).
    """

    dataset: DatasetSpec
    index: IndexSpec
    workload: WorkloadSpec
    prefetcher: PrefetcherSpec
    seed: int = 0
    sim: Mapping[str, Any] = field(default_factory=dict)
    serve: Mapping[str, Any] = field(default_factory=dict)
    faults: Mapping[str, Any] = field(default_factory=dict)
    storage: Mapping[str, Any] = field(default_factory=dict)
    shards: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        data = {
            "dataset": self.dataset.to_dict(),
            "index": self.index.to_dict(),
            "workload": self.workload.to_dict(),
            "prefetcher": self.prefetcher.to_dict(),
            "seed": int(self.seed),
            "sim": dict(self.sim),
        }
        for name in _ADDITIVE_SPEC_FIELDS:
            if getattr(self, name):
                data[name] = dict(getattr(self, name))
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellSpec":
        return cls(
            dataset=DatasetSpec(data["dataset"]["kind"], dict(data["dataset"]["params"])),
            index=IndexSpec(data["index"]["kind"], dict(data["index"]["params"])),
            workload=WorkloadSpec(**data["workload"]),
            prefetcher=PrefetcherSpec(
                data["prefetcher"]["kind"], dict(data["prefetcher"]["params"])
            ),
            seed=int(data["seed"]),
            sim=dict(data.get("sim", {})),
            **{name: dict(data.get(name, {})) for name in _ADDITIVE_SPEC_FIELDS},
        )

    def key(self) -> str:
        """Content hash identifying this cell in the result store."""
        return cell_key(self.to_dict())


@dataclass(frozen=True)
class ExperimentMatrix:
    """A declarative cell grid: the cross product of axis lists.

    Cells enumerate in a fixed nested order (dataset, index, workload,
    prefetcher, seed), so tables built from a matrix's results line up
    with its axes.  Matrices are cheap values; union several with
    ``list(m1) + list(m2)`` to express composite sweeps such as the
    Fig-13 panel collection.
    """

    datasets: tuple[DatasetSpec, ...]
    indexes: tuple[IndexSpec, ...]
    workloads: tuple[WorkloadSpec, ...]
    prefetchers: tuple[PrefetcherSpec, ...]
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        for name in ("datasets", "indexes", "workloads", "prefetchers", "seeds"):
            if not getattr(self, name):
                raise ValueError(f"matrix axis {name!r} must not be empty")

    def cells(self) -> list[CellSpec]:
        grid = []
        for dataset in self.datasets:
            for index in self.indexes:
                for workload in self.workloads:
                    for prefetcher in self.prefetchers:
                        for seed in self.seeds:
                            grid.append(
                                CellSpec(
                                    dataset=dataset,
                                    index=index,
                                    workload=workload,
                                    prefetcher=prefetcher,
                                    seed=seed,
                                )
                            )
        return grid

    def __iter__(self) -> Iterator[CellSpec]:
        return iter(self.cells())

    def __len__(self) -> int:
        return (
            len(self.datasets)
            * len(self.indexes)
            * len(self.workloads)
            * len(self.prefetchers)
            * len(self.seeds)
        )


# -- wall-clock limits --------------------------------------------------------------


class CellTimeoutError(Exception):
    """A cell exceeded its per-attempt wall-clock budget."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise CellTimeoutError("cell exceeded its wall-clock timeout")


@contextlib.contextmanager
def _wall_clock_limit(seconds: float | None) -> Iterator[None]:
    """Raise :class:`CellTimeoutError` in the block after ``seconds``.

    Enforced with ``SIGALRM``/``setitimer``, which interrupts Python
    bytecode and most blocking syscalls, so it catches hung cells --
    not just slow ones -- without any cooperation from the cell.  Only
    the main thread of a process can receive the signal; off-main-thread
    callers (and platforms without ``SIGALRM``) run unlimited, which is
    safe because pool workers and the serial runner both execute cells
    on their main thread.
    """
    if (
        seconds is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    if seconds <= 0:
        raise ValueError(f"timeout must be positive, got {seconds}")
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


#: Marker key of in-band attempt-failure records (a dict key that cannot
#: clash with ``CellResult.to_record()`` fields).
_ERROR_KEY = "__cell_error__"


def _error_record(error: BaseException, elapsed_seconds: float) -> dict:
    """A failed attempt as the in-band record :meth:`ParallelRunner._settle` reads."""
    status = STATUS_TIMEOUT if isinstance(error, CellTimeoutError) else STATUS_FAILED
    message = f"{type(error).__name__}: {error}"
    return {_ERROR_KEY: {"status": status, "error": message, "elapsed_seconds": elapsed_seconds}}


#: Failure-envelope message for cells that exhausted their attempts on
#: crashed pools (the worker died without reporting its own error).
_POOL_CRASH = {
    "status": STATUS_FAILED,
    "error": "BrokenProcessPool: a worker process died while the cell was in flight",
    "elapsed_seconds": 0.0,
}


# -- the single-cell primitive ------------------------------------------------------

#: Per-process memo of built datasets/indexes.  Sibling cells in one
#: worker (or a serial run) share heavy builds; entries are evicted
#: least-recently-built so long mixed sweeps stay bounded.
_MEMO_CAP = 8
_dataset_memo: OrderedDict[str, Any] = OrderedDict()
_index_memo: OrderedDict[str, Any] = OrderedDict()


def _memoized(memo: OrderedDict, key: str, build: Callable[[], Any]):
    if key in memo:
        memo.move_to_end(key)
        return memo[key]
    value = build()
    memo[key] = value
    while len(memo) > _MEMO_CAP:
        memo.popitem(last=False)
    return value


def _sim_config(spec: CellSpec) -> SimulationConfig | None:
    if not (spec.sim or spec.faults or spec.storage or spec.shards):
        return None
    kwargs = dict(spec.sim)
    disk = kwargs.pop("disk", None)
    if disk is not None:
        kwargs["disk"] = DiskParameters(**disk)
    if spec.faults:
        kwargs["faults"] = FaultPlan.from_dict(spec.faults)
    if spec.storage:
        kwargs["storage"] = StorageSpec.from_dict(spec.storage)
    if spec.shards:
        kwargs["shards"] = ShardSpec.from_dict(spec.shards)
    return SimulationConfig(**kwargs)


def cached_dataset(spec: DatasetSpec):
    """Build (or reuse) a spec's dataset via the per-process memo.

    Shared by cell execution and grid builders that need a *built*
    dataset to size their workloads (Fig 17 derives each dataset's query
    volume from its extent and density), so sizing a grid and then
    running it in-process pays for one build.
    """
    return _memoized(_dataset_memo, canonical_json(spec.to_dict()), spec.build)


def _cached_index(dataset_spec: DatasetSpec, index_spec: IndexSpec):
    """Build (or reuse) an index over a memoized dataset.

    The memo key pairs dataset and index specs, so the same index kind
    over two datasets never collides.
    """
    key = canonical_json(dataset_spec.to_dict()) + "|" + canonical_json(index_spec.to_dict())
    dataset = cached_dataset(dataset_spec)
    return _memoized(_index_memo, key, lambda: index_spec.build(dataset))


def prepare_cell(spec: CellSpec):
    """Everything :func:`run_experiment` needs for one cell.

    Returns ``(index, sequences, prefetcher, sim_config)``, built from
    the spec with memoized dataset/index construction.  This is the
    single definition of how a spec becomes an executable cell --
    :func:`run_cell` and the golden-metrics suite both consume it, so a
    change to cell execution cannot diverge from the regression gate.
    """
    dataset = cached_dataset(spec.dataset)
    index = _cached_index(spec.dataset, spec.index)
    w = spec.workload
    sequences = generate_sequences(
        dataset,
        n_sequences=w.n_sequences,
        seed=spec.seed,
        n_queries=w.n_queries,
        volume=w.volume,
        gap=w.gap,
        aspect=w.aspect,
        window_ratio=w.window_ratio,
    )
    prefetcher = spec.prefetcher.build(dataset, index)
    return index, sequences, prefetcher, _sim_config(spec)


def prepare_serving_cell(spec: CellSpec):
    """Everything a serving cell needs: (index, clients, prefetchers, config).

    The spec's ``serve`` mapping sizes the client fleet; the workload
    fields describe each client's single navigation session.  Every
    client gets its *own* prefetcher instance (prediction state is
    per-user) built from the same prefetcher spec.
    """
    serve = dict(spec.serve)
    try:
        n_clients = int(serve.pop("n_clients"))
    except KeyError:
        raise ValueError("serving cells require serve['n_clients']") from None
    known = {"mode", "stagger", "hot_pool", "zipf_s"}
    unknown = set(serve) - known
    if unknown:
        raise ValueError(f"unknown serve key(s) {sorted(unknown)}; known: {sorted(known)}")
    w = spec.workload
    if w.n_sequences != n_clients:
        # The serving path sizes the fleet from serve['n_clients'] and
        # gives every client exactly one session; a differing
        # n_sequences would silently fork the cell key while computing
        # the same thing.
        raise ValueError(
            f"serving cells need workload.n_sequences == serve['n_clients'] "
            f"(one session per client); got {w.n_sequences} != {n_clients}"
        )
    dataset = cached_dataset(spec.dataset)
    index = _cached_index(spec.dataset, spec.index)
    clients = multiclient_sessions(
        dataset,
        n_clients=n_clients,
        seed=spec.seed,
        n_queries=w.n_queries,
        volume=w.volume,
        gap=w.gap,
        aspect=w.aspect,
        window_ratio=w.window_ratio,
        **serve,
    )
    prefetchers = [spec.prefetcher.build(dataset, index) for _ in clients]
    return index, clients, prefetchers, _sim_config(spec)


def run_serving_cell(spec: CellSpec) -> tuple[CellResult, "ServeReport"]:
    """Execute one multi-client serving cell; (result, full serve report).

    The persisted :class:`CellResult` carries the pooled
    :class:`AggregateMetrics` (clients stand in for sequences, so
    ``per_sequence_hit_rates`` holds the per-client hit rates) and flows
    through the ordinary result-store schema; the richer
    :class:`~repro.sim.metrics.ServeReport` (contention counters) is
    returned alongside for callers that hold the live object.

    Sweeps always serve with the vectorized lockstep scheduler: its
    reports are bit-identical to the round-robin reference's (pinned by
    ``tests/test_serving_lockstep.py``), so cell keys and stored results
    do not depend on the scheduler -- only the wall-clock does.
    """
    from repro.sim.serve import ServingSimulator

    started = time.perf_counter()
    index, clients, prefetchers, config = prepare_serving_cell(spec)
    report = ServingSimulator(index, config).run(clients, prefetchers, lockstep=True)
    result = CellResult(
        key=spec.key(),
        spec=spec.to_dict(),
        metrics=report.to_aggregate(),
        elapsed_seconds=time.perf_counter() - started,
    )
    return result, report


def run_cell(spec: CellSpec) -> CellResult:
    """Execute one experiment cell from its declarative spec.

    This is the unit of work :class:`ParallelRunner` schedules; it
    rebuilds (memoized) dataset and index, generates the cell's guided
    sequences, and delegates to :func:`run_experiment` -- or, for cells
    carrying a ``serve`` mapping, to the multi-client
    :class:`~repro.sim.serve.ServingSimulator`.
    """
    if spec.serve:
        return run_serving_cell(spec)[0]
    started = time.perf_counter()
    index, sequences, prefetcher, config = prepare_cell(spec)
    outcome = run_experiment(index, sequences, prefetcher, config)
    return CellResult(
        key=spec.key(),
        spec=spec.to_dict(),
        metrics=outcome.metrics,
        elapsed_seconds=time.perf_counter() - started,
    )


def profiled_run_cell(spec: CellSpec, profile_dir: str | Path) -> CellResult:
    """Run one cell under cProfile, dumping ``<cell key>.prof``.

    The profile file lands in ``profile_dir`` (created on demand) named
    by the first 16 hex digits of the cell's content hash, so profiles
    line up with result-store records.
    """
    profile_dir = Path(profile_dir)
    profile_dir.mkdir(parents=True, exist_ok=True)
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_cell(spec)
    finally:
        profile.disable()
    profile.dump_stats(str(profile_dir / f"{spec.key()[:16]}.prof"))
    return result


def _attempt_cell(
    spec: CellSpec, profile_dir: str | Path | None, timeout: float | None
) -> CellResult:
    """One timed attempt at a cell (raises on failure or timeout)."""
    with _wall_clock_limit(timeout):
        if profile_dir is not None:
            return profiled_run_cell(spec, profile_dir)
        return run_cell(spec)


def _run_cell_record(
    spec_dict: dict, profile_dir: str | None = None, timeout: float | None = None
) -> dict:
    """One attempt at a cell: plain dicts in, plain dicts out.

    The pool's worker entry point, and what ``jobs=1`` calls in-process.
    The wall-clock limit is armed here, inside the process running the
    cell, so a hung cell interrupts *itself*.  Failures come back as an
    error record (under the ``_ERROR_KEY``) instead of a raised
    exception so the attempt's *execution* time travels with them -- the
    parent cannot tell queue wait from run time on its own.
    """
    spec = CellSpec.from_dict(spec_dict)
    started = time.perf_counter()
    try:
        return _attempt_cell(spec, profile_dir, timeout).to_record()
    except Exception as error:  # noqa: BLE001 - becomes a failure record
        return _error_record(error, time.perf_counter() - started)


# -- the runner ---------------------------------------------------------------------


@dataclass
class RunReport:
    """What a :meth:`ParallelRunner.run` call did.

    ``computed_keys`` are cells that produced metrics this run;
    ``failed_keys`` are cells recorded with a failure envelope after
    exhausting their attempts (their :class:`CellResult` entries in
    ``results`` carry ``metrics=None``); ``skipped_keys`` were reused
    from the store.  ``pool_crashes`` counts how many times the process
    pool broke (a worker died hard) and was respawned mid-sweep.
    """

    results: list[CellResult]
    computed_keys: list[str]
    skipped_keys: list[str]
    elapsed_seconds: float
    failed_keys: list[str] = field(default_factory=list)
    pool_crashes: int = 0

    @property
    def n_computed(self) -> int:
        return len(self.computed_keys)

    @property
    def n_skipped(self) -> int:
        return len(self.skipped_keys)

    @property
    def n_failed(self) -> int:
        return len(self.failed_keys)

    @property
    def ok_results(self) -> list[CellResult]:
        return [result for result in self.results if result.ok]


class ParallelRunner:
    """Fans experiment cells out over a process pool.

    ``jobs=1`` runs cells in-process (no pool, no pickling), ``jobs>1``
    on a :class:`~concurrent.futures.ProcessPoolExecutor`.  Both call
    :func:`_run_cell_record` and settle its record in :meth:`_settle`,
    so only spec dicts and metric records ever cross a boundary and the
    two paths cannot disagree on an outcome.  With a ``store``,
    finished cells are appended as soon as they complete and, when
    ``resume`` is on, cells whose key is already stored *with metrics*
    are skipped -- stored failure records are retried, so resuming a
    sweep converges on a fully-ok store.

    ``timeout`` bounds each attempt's wall-clock seconds; ``retries``
    is how many *extra* attempts a crashing or timed-out cell gets
    before it is recorded as a failure envelope and the sweep moves on.
    """

    def __init__(
        self,
        jobs: int = 1,
        store: ResultStore | None = None,
        profile_dir: str | Path | None = None,
        timeout: float | None = None,
        retries: int = 1,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = int(jobs)
        self.store = store
        #: When set, every computed cell runs under cProfile and dumps a
        #: per-cell ``.prof`` file into this directory.
        self.profile_dir = None if profile_dir is None else Path(profile_dir)
        self.timeout = None if timeout is None else float(timeout)
        self.retries = int(retries)
        self._pool_crashes = 0

    def run(
        self, cells: ExperimentMatrix | Iterable[CellSpec], resume: bool = True
    ) -> RunReport:
        """Run (or reuse) every cell; results come back in cell order.

        Duplicate cells (same key) are computed once and share one
        result.  Returns a :class:`RunReport` whose ``results`` list is
        parallel to the input cell list.
        """
        started = time.perf_counter()
        specs = list(cells.cells() if isinstance(cells, ExperimentMatrix) else cells)
        keys = [spec.key() for spec in specs]
        self._pool_crashes = 0

        done: dict[str, CellResult] = {}
        skipped: list[str] = []
        if resume and self.store is not None:
            stored = self.store.load(reload=True)
            for key in dict.fromkeys(keys):
                # Only successful records satisfy a resume; a stored
                # failure envelope means the cell still owes metrics.
                if key in stored and stored[key].ok:
                    done[key] = stored[key]
                    skipped.append(key)

        todo: list[CellSpec] = []
        seen: set[str] = set(done)
        for spec, key in zip(specs, keys):
            if key not in seen:
                seen.add(key)
                todo.append(spec)

        computed: list[str] = []
        failed: list[str] = []
        if todo:
            for result in self._compute(todo):
                done[result.key] = result
                (computed if result.ok else failed).append(result.key)
                if self.store is not None:
                    self.store.append(result)

        return RunReport(
            results=[done[key] for key in keys],
            computed_keys=computed,
            skipped_keys=skipped,
            elapsed_seconds=time.perf_counter() - started,
            failed_keys=failed,
            pool_crashes=self._pool_crashes,
        )

    @property
    def _attempts(self) -> int:
        return self.retries + 1

    def _settle(
        self,
        entry: tuple[CellSpec, int, float],
        record: dict | None,
        requeue: Callable[[tuple[CellSpec, int, float]], None],
    ) -> CellResult | None:
        """Turn one attempt's outcome into a result, a retry or a failure envelope.

        ``entry`` is ``(spec, attempt number, execution seconds already
        spent in failed attempts)``; ``record`` is what
        :func:`_run_cell_record` returned, or ``None`` when the pool
        died under the cell (which of the in-flight cells killed it is
        unknowable, so each is charged the attempt -- the charge is what
        bounds a crash-looping cell).  Failed seconds are the attempt's
        own measurement, so queue wait in a busy pool never inflates an
        envelope.  A cell with attempts left goes to ``requeue`` and
        ``None`` comes back.
        """
        spec, attempt, elapsed = entry
        failure = _POOL_CRASH if record is None else record.get(_ERROR_KEY)
        if failure is None:
            return replace(CellResult.from_record(record), attempts=attempt)
        elapsed += failure["elapsed_seconds"]
        if attempt < self._attempts:
            requeue((spec, attempt + 1, elapsed))
            return None
        return CellResult(
            key=spec.key(),
            spec=spec.to_dict(),
            metrics=None,
            elapsed_seconds=elapsed,
            status=failure["status"],
            attempts=attempt,
            error=failure["error"],
        )

    def _compute(self, specs: list[CellSpec]) -> Iterator[CellResult]:
        profile_dir = None if self.profile_dir is None else str(self.profile_dir)
        backlog: list[tuple[CellSpec, int, float]] = [(spec, 1, 0.0) for spec in specs]
        if self.jobs == 1:
            # In-process, through the workers' entry point: serial and
            # pooled results are one data path.  A retry runs next.
            work = deque(backlog)
            while work:
                entry = work.popleft()
                record = _run_cell_record(entry[0].to_dict(), profile_dir, self.timeout)
                result = self._settle(entry, record, work.appendleft)
                if result is not None:
                    yield result
            return
        # jobs>1 always pools, even for a single cell: the user asked
        # for process isolation, and a hard-crashing cell run in-process
        # would take the whole sweep down instead of a respawnable worker.
        # Each pass of the outer loop runs one batch through one
        # executor; cells orphaned by a pool crash feed the next batch.
        while backlog:
            batch, backlog = backlog, []
            work = deque(batch)
            max_workers = min(self.jobs, len(batch))
            # Submissions are windowed at workers+1: enough to keep every
            # worker fed (the +1 buffers the gap between a worker going
            # idle and the next top-up), small enough that a pool crash
            # only charges an attempt to cells plausibly executing --
            # cells still waiting in `work` never ran, so they re-enter
            # the next batch uncharged.
            window = max_workers + 1
            pool = ProcessPoolExecutor(max_workers=max_workers)
            broken = False
            pending: dict[Future, tuple[CellSpec, int, float]] = {}

            def top_up() -> None:
                """Fill the submission window (the only submit call site)."""
                nonlocal broken
                while not broken and work and len(pending) < window:
                    entry = work.popleft()
                    try:
                        future = pool.submit(
                            _run_cell_record, entry[0].to_dict(), profile_dir, self.timeout
                        )
                    except BrokenProcessPool:
                        broken = True
                        work.appendleft(entry)
                        return
                    pending[future] = entry

            try:
                top_up()
                while pending:
                    finished, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in finished:
                        entry = pending.pop(future)
                        # A retry goes to the front of the queue: it runs
                        # as soon as a window slot frees (reusing the
                        # workers' warm dataset/index memos), or in the
                        # next batch if the pool broke.
                        requeue = work.appendleft
                        try:
                            record = future.result()
                        except BrokenProcessPool:
                            # A worker died hard and took the pool with
                            # it: re-enqueue for the respawned pool.
                            broken = True
                            record, requeue = None, backlog.append
                        except Exception as error:  # noqa: BLE001 - failure record
                            # Out-of-band failure (e.g. a result that cannot
                            # unpickle); no worker timing available.
                            record = _error_record(error, 0.0)
                        result = self._settle(entry, record, requeue)
                        if result is not None:
                            yield result
                    if broken:
                        self._pool_crashes += 1
                        # Drain what is left.  A future may have settled
                        # between the crash and this drain: completed
                        # results are yielded as usual, and a worker's
                        # own failure record keeps its true status and
                        # timing instead of being blamed on the crash.
                        for future, entry in pending.items():
                            record = None
                            if future.done():
                                try:
                                    record = future.result()
                                except Exception:  # noqa: BLE001 - broken or cancelled future
                                    pass
                            result = self._settle(entry, record, backlog.append)
                            if result is not None:
                                yield result
                        pending.clear()
                    else:
                        top_up()
                # Cells never submitted to the broken pool carry over
                # uncharged (work is empty after a healthy batch).
                backlog.extend(work)
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
