"""Persisted experiment results: content-addressed JSON-lines stores.

Every experiment cell is identified by the **content hash** of its
declarative spec (see :mod:`repro.sim.runner`): the spec is serialized
to canonical JSON (sorted keys, no whitespace) and hashed with SHA-256.
Two cells with the same datasets, indexes, workloads, prefetchers,
seeds and simulator knobs therefore share a key regardless of where or
when they run -- which is what makes results *resumable*: a sweep that
finds a cell's key already in the store reuses the stored metrics
instead of re-simulating.

The store itself is one JSON-lines file (one record per line), chosen
over a database for three properties the orchestrator needs:

* **append-only writes** -- the parent process appends each finished
  cell as soon as its worker returns, fsynced before ``append``
  returns, so an interrupted sweep keeps everything computed so far;
* **corruption locality** -- a truncated or garbled line (e.g. from a
  crash mid-write) invalidates only that record.  :meth:`ResultStore.load`
  verifies each line and drops bad records, distinguishing *corrupt*
  lines (broken JSON, spec/key hash mismatch -- :attr:`ResultStore.n_corrupt`)
  from *stale* ones (valid JSON written by an older/newer code revision:
  unknown schema version, missing envelope or metric fields --
  :attr:`ResultStore.n_stale`).  Both are recomputed on resume; neither
  is ever handed to table rendering;
* **greppability** -- results are plain text, one cell per line.

Records are wrapped in a **status envelope** (``STORE_SCHEMA = 2``):
``{status: ok|failed|timeout, attempts, error, metrics, ...}``.  A cell
that crashed or exceeded its wall-clock budget is persisted as a
failure record (``metrics: null``) instead of aborting the sweep, and
is retried on the next resume.

For multi-host sweeps, :class:`ShardedResultStore` deterministically
splits the key space into ``n_shards`` slices by spec-hash; independent
hosts or CI jobs each sweep one ``--shard i/n`` slice into their own
file, and :func:`merge_stores` unions the shard files back into one
store.

Duplicate keys are legal (re-runs append); the last record wins, so a
recomputed cell supersedes a corrupt or stale one on the next load.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.sim.metrics import ADDITIVE_METRICS, BASE_METRICS, AggregateMetrics
from repro.util import slice_of

__all__ = [
    "CellResult",
    "CompactReport",
    "MergeReport",
    "ResultStore",
    "ShardedResultStore",
    "canonical_json",
    "cell_key",
    "merge_stores",
    "metrics_from_dict",
    "metrics_to_dict",
    "shard_of",
    "shard_store_path",
]

#: Store schema version; bump when the record layout changes.  A line
#: of any other version is classified stale and recomputed.
STORE_SCHEMA = 2

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"
_STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMEOUT)


def canonical_json(value: Any) -> str:
    """Deterministic JSON used for hashing and cache keys."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def cell_key(spec: Mapping[str, Any]) -> str:
    """Content hash of a cell-spec dict (hex SHA-256)."""
    return hashlib.sha256(canonical_json(spec).encode("utf-8")).hexdigest()


def metrics_to_dict(metrics: AggregateMetrics) -> dict[str, Any]:
    """JSON-safe dict of one cell's aggregate metrics.

    Every :data:`~repro.sim.metrics.BASE_METRICS` key is present, in
    table order; an infinite speedup (zero residual I/O) is stored as
    ``null``, and :func:`metrics_from_dict` restores it.

    The :data:`~repro.sim.metrics.ADDITIVE_METRICS` keys are present
    only when set (serving cells; a layer's counters only when the
    layer is active), in table order, so records of cells that predate
    a key -- and therefore existing stores -- stay byte-identical.
    """
    data = {name: getattr(metrics, name) for name, _ in BASE_METRICS}
    if math.isinf(data["speedup"]):
        data["speedup"] = None
    data["per_sequence_hit_rates"] = list(data["per_sequence_hit_rates"])
    for name, cast, _ in ADDITIVE_METRICS:
        value = getattr(metrics, name)
        if value is not None:
            data[name] = cast(value)
    return data


def metrics_from_dict(data: Mapping[str, Any]) -> AggregateMetrics:
    """Rebuild :class:`AggregateMetrics` from a stored record."""
    base = {**data, "speedup": math.inf if data["speedup"] is None else data["speedup"]}
    return AggregateMetrics(
        **{name: cast(base[name]) for name, cast in BASE_METRICS},
        **{
            name: None if data.get(name) is None else cast(data[name])
            for name, cast, _ in ADDITIVE_METRICS
        },
    )


@dataclass(frozen=True)
class CellResult:
    """One experiment cell's persisted outcome.

    ``status`` is the failure envelope: ``"ok"`` results carry metrics,
    ``"failed"`` / ``"timeout"`` results carry ``metrics=None`` plus the
    stringified ``error`` and the number of ``attempts`` spent before
    giving up.  Failure records keep a sweep's bookkeeping (what ran,
    what died, how often) in the same store as its data.
    """

    key: str
    spec: dict
    metrics: AggregateMetrics | None
    elapsed_seconds: float = 0.0
    status: str = STATUS_OK
    attempts: int = 1
    error: str | None = None

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}; known: {', '.join(_STATUSES)}")
        if (self.metrics is None) == (self.status == STATUS_OK):
            raise ValueError(f"status {self.status!r} inconsistent with metrics presence")

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def prefetcher_kind(self) -> str:
        return self.spec["prefetcher"]["kind"]

    def to_record(self) -> dict[str, Any]:
        return {
            "schema": STORE_SCHEMA,
            "key": self.key,
            "spec": self.spec,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "metrics": None if self.metrics is None else metrics_to_dict(self.metrics),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_record(cls, record: Mapping[str, Any]) -> "CellResult":
        metrics = record.get("metrics")
        return cls(
            key=record["key"],
            spec=dict(record["spec"]),
            metrics=None if metrics is None else metrics_from_dict(metrics),
            elapsed_seconds=float(record["elapsed_seconds"]),
            status=record["status"],
            attempts=int(record["attempts"]),
            error=record["error"],
        )


@dataclass(frozen=True)
class CompactReport:
    """What :meth:`ResultStore.compact` kept, dropped and reclaimed.

    ``n_superseded`` counts intact lines shadowed by a later record with
    the same key (re-runs append; the last record wins on load).  The
    byte counts compare the store file before and after the atomic
    rewrite, so ``reclaimed_bytes`` is the disk space the corrupt, stale
    and superseded lines were occupying (never negative: a kept record
    is rewritten byte for byte).
    """

    path: Path
    n_kept: int
    n_corrupt: int
    n_stale: int
    n_superseded: int
    bytes_before: int
    bytes_after: int

    @property
    def reclaimed_bytes(self) -> int:
        return self.bytes_before - self.bytes_after


_VALID, _STALE, _CORRUPT = "valid", "stale", "corrupt"


def _classify_record(record: Any) -> str:
    """Sort a parsed store line into valid / stale / corrupt.

    *Corrupt* means the line cannot be trusted at all: not a record
    dict, or the spec no longer matches its content hash.  *Stale*
    means the line is intact but was written by a different code
    revision -- unknown schema version, or an envelope/metrics layout
    missing fields the current reader requires.  Both are dropped and
    recomputed; the distinction keeps "this store is damaged" separate
    from "this store predates the current schema" in sweep reporting.
    """
    if not isinstance(record, dict):
        return _CORRUPT
    spec = record.get("spec")
    key = record.get("key")
    if not isinstance(spec, dict) or not isinstance(key, str):
        return _CORRUPT
    if cell_key(spec) != key:
        # Tampered or bit-rotted: the spec no longer matches its hash.
        return _CORRUPT
    if record.get("schema") != STORE_SCHEMA:
        return _STALE
    status = record.get("status")
    if status not in _STATUSES or not isinstance(record.get("attempts"), int):
        return _STALE
    if status == STATUS_OK:
        metrics = record.get("metrics")
        if not isinstance(metrics, dict):
            return _STALE
        if not all(name in metrics for name, _ in BASE_METRICS):
            # Valid JSON from an older revision that tracked fewer
            # metrics: explicitly stale, never silently rendered.
            return _STALE
    return _VALID


def _append_line(path: Path, line: str) -> None:
    """Append one record line durably, guarding against a partial final line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a+b") as fh:
        # A crash mid-write can leave the file without a trailing
        # newline; writing straight on would glue this record onto
        # the partial line and corrupt both.
        fh.seek(0, 2)
        if fh.tell() > 0:
            fh.seek(-1, 2)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
        fh.write((line + "\n").encode("utf-8"))
        fh.flush()
        os.fsync(fh.fileno())


def _replace_store(path: Path, results: Iterable[CellResult]) -> None:
    """Atomically rewrite ``path`` to hold exactly ``results``.

    The records go to a tmp file that is fsynced *before* it is renamed
    over ``path``: a crash, power loss included, leaves either the old
    store or the complete new one, never a renamed-but-empty file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result.to_record()) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    tmp.replace(path)


class ResultStore:
    """JSON-lines store of :class:`CellResult` records, keyed by spec hash."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._results: dict[str, CellResult] = {}
        self._loaded = False
        #: Lines dropped by the last :meth:`load` as damaged beyond
        #: trust (broken JSON, non-record lines, spec/key hash mismatch).
        self.n_corrupt = 0
        #: Lines dropped by the last :meth:`load` as schema-envelope
        #: mismatches: intact JSON written by an older or newer code
        #: revision (unknown schema version, missing envelope or metric
        #: fields).  Stale cells are recomputed, never rendered.
        self.n_stale = 0
        #: Non-blank lines seen by the last :meth:`load` (valid or not);
        #: lets :meth:`compact` count superseded duplicates.
        self.n_lines = 0

    # -- reading ------------------------------------------------------------

    def load(self, reload: bool = False) -> dict[str, CellResult]:
        """Parse the store file, dropping (and counting) bad lines."""
        if self._loaded and not reload:
            return self._results
        self._results = {}
        self.n_corrupt = 0
        self.n_stale = 0
        self.n_lines = 0
        if self.path.exists():
            # Binary mode with per-line decoding: a final line torn
            # mid-write (e.g. truncated inside a multi-byte UTF-8
            # character by a crash or full disk) must cost exactly that
            # one record -- text mode would raise UnicodeDecodeError and
            # abort the whole load.
            with self.path.open("rb") as fh:
                for raw in fh:
                    raw = raw.strip()
                    if not raw:
                        continue
                    self.n_lines += 1
                    try:
                        record = json.loads(raw.decode("utf-8"))
                    except (UnicodeDecodeError, json.JSONDecodeError):
                        self.n_corrupt += 1
                        continue
                    verdict = _classify_record(record)
                    if verdict is not _VALID:
                        if verdict is _STALE:
                            self.n_stale += 1
                        else:
                            self.n_corrupt += 1
                        continue
                    try:
                        result = CellResult.from_record(record)
                    except (KeyError, TypeError, ValueError):
                        self.n_corrupt += 1
                        continue
                    self._results[result.key] = result
        self._loaded = True
        return self._results

    # -- writing ------------------------------------------------------------

    def append(self, result: CellResult) -> None:
        """Append one record (on disk when this returns) and update the view."""
        self.load()
        _append_line(self.path, json.dumps(result.to_record()))
        self._results[result.key] = result

    def compact(self) -> CompactReport:
        """Rewrite the file without corrupt, stale or superseded lines.

        The rewrite is atomic (:func:`_replace_store`), so a crash mid-compact
        leaves the original store intact, and idempotent: compacting a
        compacted store keeps every record and reclaims zero bytes.
        Returns a :class:`CompactReport` with the kept/dropped line
        accounting and the bytes reclaimed.  Useful after long resumed
        sweeps have accumulated duplicate or damaged lines.
        """
        bytes_before = self.path.stat().st_size if self.path.exists() else 0
        results = self.load(reload=True)
        n_corrupt, n_stale = self.n_corrupt, self.n_stale
        n_superseded = self.n_lines - n_corrupt - n_stale - len(results)
        _replace_store(self.path, results.values())
        self.n_corrupt = 0
        self.n_stale = 0
        self.n_lines = len(results)
        return CompactReport(
            path=self.path,
            n_kept=len(results),
            n_corrupt=n_corrupt,
            n_stale=n_stale,
            n_superseded=n_superseded,
            bytes_before=bytes_before,
            bytes_after=self.path.stat().st_size,
        )


# -- sharding -----------------------------------------------------------------------


def shard_of(key: str, n_shards: int) -> int:
    """Deterministic shard index of a cell key (hex SHA-256 spec hash).

    Uses the key's leading 64 bits so any process, on any host, at any
    time assigns a cell to the same slice -- the property that lets
    independent CI jobs sweep ``--shard 0/2`` and ``--shard 1/2``
    without coordination and still partition the grid exactly.  The
    assignment rule itself is :func:`repro.util.slice_of`, shared with
    the sharded cache's hash partitioner so both stay pinned together.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return int(slice_of(int(key[:16], 16), n_shards))


def shard_store_path(path: str | Path, shard_index: int, n_shards: int) -> Path:
    """Per-shard store file derived from the merged-store path.

    ``results/fig10.jsonl`` with shard 0/2 becomes
    ``results/fig10.shard0of2.jsonl``; the undecorated path is reserved
    for the :func:`merge_stores` output.
    """
    path = Path(path)
    suffix = path.suffix or ".jsonl"
    return path.with_name(f"{path.stem}.shard{shard_index}of{n_shards}{suffix}")


class ShardedResultStore(ResultStore):
    """One ``--shard i/n`` slice of a sweep's key space.

    The store file lives at :func:`shard_store_path`; :meth:`owns`
    says whether a key hashes into this slice, and :meth:`append`
    refuses results from other slices so a mis-wired runner cannot
    silently produce overlapping shard files (which would make merges
    ambiguous).
    """

    def __init__(self, path: str | Path, shard_index: int, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if not 0 <= shard_index < n_shards:
            raise ValueError(f"shard index must be in [0, {n_shards}), got {shard_index}")
        self.shard_index = int(shard_index)
        self.n_shards = int(n_shards)
        super().__init__(shard_store_path(path, shard_index, n_shards))

    def owns(self, key: str) -> bool:
        return shard_of(key, self.n_shards) == self.shard_index

    def append(self, result: CellResult) -> None:
        if not self.owns(result.key):
            raise ValueError(
                f"cell {result.key[:12]} belongs to shard "
                f"{shard_of(result.key, self.n_shards)}/{self.n_shards}, "
                f"not {self.shard_index}/{self.n_shards}"
            )
        super().append(result)


# -- merging ------------------------------------------------------------------------


@dataclass
class MergeReport:
    """What :func:`merge_stores` combined and what it refused."""

    out_path: Path
    n_cells: int
    n_inputs: int
    n_corrupt: int = 0
    n_stale: int = 0
    #: Keys whose duplicate records disagreed across inputs (the later
    #: input won, ok records always beating failure records).
    conflict_keys: list[str] = field(default_factory=list)
    #: Input paths that did not exist.  Legal -- a shard that owned no
    #: cells never creates its file -- but surfaced so a typo'd shard
    #: path cannot silently produce a partial merge.
    missing_inputs: list[Path] = field(default_factory=list)


def merge_stores(input_paths: Sequence[str | Path], out_path: str | Path) -> MergeReport:
    """Union shard (or partial-sweep) stores into one compacted store.

    Inputs are loaded with full validation (corrupt and stale lines
    dropped and counted).  Duplicate keys resolve in favour of ``ok``
    records over failure records; among records of equal status the
    later input wins.  The output is written atomically (:func:`_replace_store`),
    so merging is idempotent and re-merging after a retry run simply
    upgrades failure records in place.  ``out_path`` may itself be one
    of the inputs.
    """
    paths = [Path(p) for p in input_paths]
    if not paths:
        raise ValueError("merge needs at least one input store")
    merged: dict[str, CellResult] = {}
    n_corrupt = 0
    n_stale = 0
    conflicts: list[str] = []
    missing = [path for path in paths if not path.exists()]
    if len(missing) == len(paths):
        # A sweep's grid always has cells, so at least one shard file
        # must exist; all-missing means typo'd paths (or an unexpanded
        # shell glob), and proceeding would atomically truncate out_path.
        raise ValueError(
            "no input store exists: " + ", ".join(str(p) for p in missing)
        )
    for path in paths:
        store = ResultStore(path)
        for key, result in store.load().items():
            previous = merged.get(key)
            if previous is not None and previous.to_record() != result.to_record():
                conflicts.append(key)
                if previous.ok and not result.ok:
                    continue  # never let a failure shadow a success
            merged[key] = result
        n_corrupt += store.n_corrupt
        n_stale += store.n_stale

    out_path = Path(out_path)
    _replace_store(out_path, merged.values())
    return MergeReport(
        out_path=out_path,
        n_cells=len(merged),
        n_inputs=len(paths),
        n_corrupt=n_corrupt,
        n_stale=n_stale,
        conflict_keys=conflicts,
        missing_inputs=missing,
    )
