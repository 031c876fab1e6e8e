"""The ``scout-repro serve`` asyncio daemon (DESIGN.md §8).

One process owns the serving plane the simulator shares out: a dataset,
its page-granular index, one shared prefetch cache and one disk model
(optionally fault-wrapped, complete with the per-client circuit
breakers of DESIGN.md §7).  Each client *connection* runs a
:class:`~repro.sim.engine.QuerySession`, whose ``step_query`` is
exactly the unit an event loop needs: a query advances in one
synchronous, sub-millisecond step, so the daemon executes steps inline
on the loop and concurrency lives in the *queueing*, not in threads
(which also keeps the shared cache single-writer by construction).
A step's *pure* work -- index result, prediction, plan -- depends only
on the walk and the position in it, so the daemon keeps one plan tape
per pool walk and later sessions on that walk read it
(``step_query_replay``) instead of recomputing it; cache touches, disk
reads and budget spending still execute per request, in FIFO order.

Admission control is a bounded accept queue: a ``query`` arriving while
``max_queue`` requests are already waiting is shed immediately with a
``shed: true`` reply instead of queueing without bound -- overload
degrades into fast rejections and honest shed counts, not into a
latency collapse.  Request latency is measured from *enqueue* to
response-ready, so queueing delay is part of every percentile.

Graceful shutdown (``shutdown`` op, SIGINT or SIGTERM) stops accepting
connections, drains every queued request to a real response, then
writes the final latency report.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path

from repro.quickstart import default_prefetcher
from repro.serve.latency import LatencyRecorder
from repro.serve.protocol import ProtocolError, read_frame, write_frame
from repro.sim.engine import QuerySession, SimulationConfig, SimulationEngine
from repro.sim.metrics import LatencyReport
from repro.sim.serve import plans_shareable
from repro.storage.faults import FaultPlan
from repro.storage.sharded import ShardedCache, ShardSpec
from repro.storage.tiered import StorageSpec, TieredStore
from repro.workload.multiclient import multiclient_sessions

__all__ = ["DaemonConfig", "ServeDaemon"]


@dataclass(frozen=True)
class DaemonConfig:
    """Everything ``scout-repro serve`` needs to stand up a serving plane."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Synthetic tissue size backing the daemon's dataset and index.
    n_neurons: int = 16
    #: Root seed of the workload pool (and the fault plan, if any).
    seed: int = 21
    #: Prefetcher every session runs, one of
    #: :data:`repro.quickstart.PREFETCHER_NAMES`.
    prefetcher: str = "ewma"
    #: Distinct navigation walks in the session pool; connection ``i``
    #: replays walk ``i mod pool`` (hotspot mode Zipf-shares the pool).
    session_pool: int = 8
    #: Queries per session; an exhausted session is renewed in place.
    queries_per_session: int = 20
    query_volume: float = 30_000.0
    mode: str = "hotspot"
    #: Shared cache capacity in pages (``None``: the engine's sizing rule).
    cache_pages: int | None = None
    #: Admission-control bound: queries queued beyond this are shed.
    max_queue: int = 64
    #: Seconds between interval latency reports on stdout.
    report_interval: float = 5.0
    #: Where to write the final JSON report (``None``: stdout only).
    report_path: str | None = None
    #: Transient-read fault rate; > 0 wraps the disk in a seeded
    #: :class:`~repro.storage.faults.FaultyDiskModel` (breakers armed).
    fault_rate: float = 0.0
    #: Page-store backend: ``ram`` (analytic disk model only) or ``mmap``
    #: (a real on-disk :class:`~repro.storage.pagefile.PageFile` behind
    #: the :class:`~repro.storage.tiered.TieredStore`).
    storage: str = "ram"
    #: Miss-path mechanism between cache and backing store (DESIGN.md §9).
    miss_path: str = "none"
    #: Storage-side tier cache capacity in pages; 0 disables the tier.
    tier_pages: int = 0
    #: Page-file path for the ``mmap`` backend (``None``: a private temp
    #: file, removed at shutdown).
    pagefile: str | None = None
    #: Cache shard count; 0 or 1 keeps the single unsharded cache, K > 1
    #: routes every touch through a :class:`~repro.storage.sharded.
    #: ShardedCache` over K shards (DESIGN.md §10).
    shards: int = 0
    #: Partition scheme for the sharded cache (``hilbert`` or ``hash``).
    partition: str = "hilbert"


class _Job:
    """One admitted query request: its session slot and completion future."""

    __slots__ = ("state", "future", "enqueued_at")

    def __init__(self, state: "_ConnectionState", future: asyncio.Future, enqueued_at: float):
        self.state = state
        self.future = future
        self.enqueued_at = enqueued_at


class _ConnectionState:
    """One connection's session slot (renewed in place when exhausted).

    ``tape`` and ``recording`` are how the current session steps, fixed
    for its whole lifetime by :meth:`ServeDaemon._begin_lifetime`: a
    session with a ``tape`` replays it, one with a ``recording`` list
    captures into it, one with neither steps plainly.
    """

    __slots__ = ("client_id", "walk", "session", "tape", "recording", "sessions_completed")

    def __init__(self, client_id: int, walk: int, session: QuerySession):
        self.client_id = client_id
        self.walk = walk
        self.session = session
        self.tape: list | None = None
        self.recording: list | None = None
        self.sessions_completed = 0


class ServeDaemon:
    """Serves :class:`~repro.sim.engine.QuerySession` steps over TCP."""

    def __init__(self, config: DaemonConfig | None = None) -> None:
        from repro.datagen import make_neuron_tissue
        from repro.index import FlatIndex

        self.config = config or DaemonConfig()
        config = self.config
        if config.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {config.max_queue}")
        if config.session_pool < 1:
            raise ValueError(f"session_pool must be >= 1, got {config.session_pool}")

        self.dataset = make_neuron_tissue(n_neurons=config.n_neurons, seed=config.seed)
        self.index = FlatIndex(self.dataset, fanout=16)
        faults = None
        if config.fault_rate > 0:
            faults = FaultPlan(
                transient_rate=config.fault_rate,
                corrupt_rate=config.fault_rate / 2.0,
                seed=config.seed,
            )
        storage = None
        if config.storage != "ram" or config.miss_path != "none" or config.tier_pages > 0:
            storage = StorageSpec(
                backend=config.storage,
                miss_path=config.miss_path,
                tier_pages=config.tier_pages,
                path=config.pagefile,
            )
        shards = None
        if config.shards > 0:
            shards = ShardSpec(n_shards=config.shards, partition=config.partition)
        self.sim_config = SimulationConfig(
            cache_capacity_pages=config.cache_pages,
            faults=faults,
            storage=storage,
            shards=shards,
        )
        self.engine = SimulationEngine(self.index, self.sim_config)
        self.cache = self.sim_config.build_cache(self.index)
        self.disk = self.sim_config.build_disk()
        if isinstance(self.disk, TieredStore):
            # Sessions would bind lazily, but the daemon serves pages from
            # its very first query -- materialize the page file up front so
            # a bad --pagefile fails at boot, not mid-request.
            self.disk.bind_page_table(self.index.page_table)
        self.pool = multiclient_sessions(
            self.dataset,
            n_clients=config.session_pool,
            seed=config.seed,
            n_queries=config.queries_per_session,
            volume=config.query_volume,
            mode=config.mode,
        )
        self._make_prefetcher = functools.partial(
            default_prefetcher(config.prefetcher).build, self.dataset, self.index
        )
        # One plan tape per pool walk (DESIGN.md §8): the pure work of
        # each of its queries, published by the first session that
        # finishes recording the walk and replayed by every session
        # opened on it afterwards.  Every session runs the configured
        # prefetcher, so one instance decides eligibility for all.
        self._sharing = plans_shareable([self._make_prefetcher()], faults)
        self._tapes: list[list | None] = [None] * len(self.pool)

        self.recorder = LatencyRecorder()
        self.intervals: list[LatencyReport] = []
        self.requests_admitted = 0
        self.requests_shed = 0
        #: Requests served from a plan tape instead of observe/plan work.
        self.plans_replayed = 0
        self._interval_replayed_mark = 0
        self.sessions_completed = 0
        self.queue_depth_max = 0
        self._interval_depth_max = 0

        self._next_client_id = 0
        self._queue: asyncio.Queue[_Job | None] = asyncio.Queue(maxsize=config.max_queue)
        self._server: asyncio.AbstractServer | None = None
        self._worker_task: asyncio.Task | None = None
        self._reporter_task: asyncio.Task | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._draining = False
        self._stopped = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("daemon is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Bind the listener and start the worker (no reporter yet)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._worker_task = asyncio.create_task(self._worker())

    async def run_async(self, announce=None) -> dict:
        """Serve until drained; returns (and optionally writes) the final report.

        ``announce`` receives one JSON line per event (``ready``, each
        interval report, the final report) -- the daemon's stdout
        contract that the CI smoke job and the load generator parse.
        """
        if announce is None:
            announce = _print_line
        if self._server is None:
            await self.start()
        announce(
            json.dumps(
                {
                    "type": "ready",
                    "host": self.config.host,
                    "port": self.port,
                    "prefetcher": self.config.prefetcher,
                    "max_queue": self.config.max_queue,
                }
            )
        )
        self._reporter_task = asyncio.create_task(self._reporter(announce))
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(self.shutdown())
                )
        await self._stopped.wait()
        self._reporter_task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await self._reporter_task
        report = self.final_report()
        announce(json.dumps(report))
        if self.config.report_path is not None:
            path = Path(self.config.report_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return report

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, answer every queued request, stop.

        Idempotent; concurrent callers all return once the drain is done.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        # Every already-admitted request still gets a real response.
        await self._queue.join()
        await self._queue.put(None)
        if self._worker_task is not None:
            await self._worker_task
        # Give per-connection responders a chance to flush the drained
        # replies before their sockets are closed under them.
        for _ in range(4):
            await asyncio.sleep(0)
        for writer in list(self._writers):
            with contextlib.suppress(ConnectionError):
                writer.close()
        if self._server is not None:
            # Only now: from Python 3.12.1 this waits for every connection
            # to close, so ahead of the drain one idle peer would hold it.
            await self._server.wait_closed()
        if isinstance(self.disk, TieredStore):
            self.disk.close()
        self._stopped.set()

    def final_report(self) -> dict:
        """The end-of-run JSON report (also written to ``report_path``)."""
        total = self.recorder.total()
        return {
            "type": "final",
            "drained": self._stopped.is_set() or self._draining,
            "requests_admitted": self.requests_admitted,
            "plans_replayed": self.plans_replayed,
            "requests_shed": self.requests_shed,
            "sessions_completed": self.sessions_completed,
            "queue_depth_max": self.queue_depth_max,
            "latency": total.summary(),
            "intervals": [r.summary() for r in self.intervals],
            "cache": {
                "capacity_pages": self.cache.capacity_pages,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "insertions": self.cache.insertions,
            },
            "faults_active": self.sim_config.faults is not None,
            "storage": self._storage_report(),
            "shards": self._shards_report(),
        }

    def _storage_report(self) -> dict:
        """The tiered-store slice of the final report (stats survive close)."""
        report: dict = {
            "backend": self.config.storage,
            "miss_path": self.config.miss_path,
            "tier_pages": self.config.tier_pages,
        }
        if isinstance(self.disk, TieredStore):
            ts = self.disk.tier_stats
            report.update(
                requests=ts.requests,
                tier_hits=ts.tier_hits,
                miss_path_hits=ts.mechanism_hits,
                backing_pages=ts.backing_pages,
                stall_seconds=ts.stall_seconds,
                torn_detected=ts.torn_detected,
                torn_repaired=ts.torn_repaired,
            )
        return report

    def _shards_report(self) -> dict:
        """The sharded-cache slice of the final report (counters when K > 1)."""
        report: dict = {
            "n_shards": self.config.shards,
            "partition": self.config.partition,
        }
        if isinstance(self.cache, ShardedCache):
            report.update(
                per_shard=self.cache.per_shard_stats(),
                rebalance_events=self.cache.rebalance_events,
                pages_moved=self.cache.pages_moved,
                hops=self.cache.hops,
                hop_seconds=self.cache.hop_seconds,
            )
        return report

    # -- background tasks --------------------------------------------------------

    async def _worker(self) -> None:
        """Drain the admission queue, one query step at a time, in order."""
        while True:
            job = await self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                reply = self._execute(job.state)
                latency = time.perf_counter() - job.enqueued_at
                self.recorder.observe(latency)
                reply["latency_ms"] = 1e3 * latency
            except Exception as error:  # defensive: a session bug must not kill the loop
                self.recorder.count_error()
                reply = {"ok": False, "error": f"{type(error).__name__}: {error}"}
            if not job.future.done():
                job.future.set_result(reply)
            self._queue.task_done()

    def _begin_lifetime(self, state: _ConnectionState) -> None:
        """Choose how ``state``'s fresh session steps, once for its whole life.

        A walk with a published tape is replayed; otherwise, when
        sharing is sound, the session records one.  Never re-deciding
        mid-session is what makes replay safe: a replaying session's
        prefetcher goes stale at its first step and is never consulted,
        because the tape it was given already covers its whole sequence.
        """
        state.tape = self._tapes[state.walk]
        state.recording = [] if self._sharing and state.tape is None else None

    def _execute(self, state: _ConnectionState) -> dict:
        """Advance one session step (renewing an exhausted session in place)."""
        session = state.session
        if session.done:
            session = session.renew(self._make_prefetcher())
            state.session = session
            state.sessions_completed += 1
            self.sessions_completed += 1
            self._begin_lifetime(state)
        if state.tape is not None:
            record = session.step_query_replay(state.tape[session.query_index])
            self.plans_replayed += 1
        elif state.recording is not None:
            try:
                state.recording.append(session.step_query_capture())
            except Exception:
                # The prefetcher saw a failed step: what this session
                # computes from here on is not the walk's pure work.
                state.recording = None
                raise
            record = session.metrics.records[-1]
            if session.done and self._tapes[state.walk] is None:
                self._tapes[state.walk] = state.recording
        else:
            record = session.step_query()
        return {
            "ok": True,
            "client_id": state.client_id,
            "query_index": record.index,
            "pages_needed": record.pages_needed,
            "pages_hit": record.pages_hit,
            "prefetch_pages": record.prefetch_pages,
            "session_done": session.done,
            "sessions_completed": state.sessions_completed,
        }

    async def _reporter(self, announce) -> None:
        """Emit one interval latency report per ``report_interval`` seconds."""
        while True:
            await asyncio.sleep(self.config.report_interval)
            announce(json.dumps(self.interval_report()))

    def interval_report(self) -> dict:
        """Snapshot the open interval into a JSON report."""
        report = self.recorder.snapshot()
        self.intervals.append(report)
        depth_max = self._interval_depth_max
        self._interval_depth_max = 0
        replayed = self.plans_replayed - self._interval_replayed_mark
        self._interval_replayed_mark = self.plans_replayed
        return {
            "type": "interval",
            "interval": len(self.intervals) - 1,
            "queue_depth": self._queue.qsize(),
            "queue_depth_max": depth_max,
            "connections": len(self._writers),
            "plans_replayed": replayed,
            **report.summary(),
        }

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        responses: asyncio.Queue = asyncio.Queue()
        responder = asyncio.create_task(self._respond_loop(responses, writer))
        state: _ConnectionState | None = None
        shutdown_requested = False
        try:
            while True:
                frame = await read_frame(reader)
                if frame is None:
                    break
                op = frame.get("op")
                if op == "hello":
                    state = self._open_session()
                    await responses.put(
                        _done(
                            {
                                "ok": True,
                                "client_id": state.client_id,
                                "n_queries": len(state.session.sequence),
                                "prefetcher": self.config.prefetcher,
                            }
                        )
                    )
                elif op == "query":
                    await responses.put(self._admit(state))
                elif op == "stats":
                    await responses.put(_done(self._stats_reply()))
                elif op == "shutdown":
                    await responses.put(_done({"ok": True, "draining": True}))
                    shutdown_requested = True
                    break
                elif op == "bye":
                    await responses.put(_done({"ok": True, "bye": True}))
                    break
                else:
                    await responses.put(_done({"ok": False, "error": f"unknown op {op!r}"}))
        except ProtocolError as error:
            await responses.put(_done({"ok": False, "error": str(error)}))
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            await responses.put(None)
            with contextlib.suppress(ConnectionError):
                await responder
            self._writers.discard(writer)
            with contextlib.suppress(ConnectionError):
                writer.close()
            if shutdown_requested:
                # Trigger the drain only after the responder has flushed
                # the shutdown acknowledgement to the requester.
                await self.shutdown()

    def _open_session(self) -> _ConnectionState:
        client_id = self._next_client_id
        self._next_client_id += 1
        walk = client_id % len(self.pool)
        session = QuerySession(
            self.engine,
            self.pool[walk].sequence,
            self._make_prefetcher(),
            cache=self.cache,
            disk=self.disk,
            client_id=client_id,
        )
        state = _ConnectionState(client_id, walk, session)
        self._begin_lifetime(state)
        return state

    def _admit(self, state: _ConnectionState | None) -> asyncio.Future:
        """Admission control: enqueue the query, or shed it immediately."""
        if state is None:
            return _done({"ok": False, "error": "query before hello"})
        if self._draining:
            return _done({"ok": False, "shed": True, "error": "draining"})
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        job = _Job(state, future, time.perf_counter())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.requests_shed += 1
            self.recorder.count_shed()
            return _done({"ok": False, "shed": True})
        self.requests_admitted += 1
        depth = self._queue.qsize()
        self.queue_depth_max = max(self.queue_depth_max, depth)
        self._interval_depth_max = max(self._interval_depth_max, depth)
        return future

    def _stats_reply(self) -> dict:
        return {
            "ok": True,
            "requests_admitted": self.requests_admitted,
            "plans_replayed": self.plans_replayed,
            "requests_shed": self.requests_shed,
            "sessions_completed": self.sessions_completed,
            "queue_depth": self._queue.qsize(),
            "queue_depth_max": self.queue_depth_max,
            "connections": len(self._writers),
            "latency": self.recorder.total().summary(),
        }

    async def _respond_loop(
        self, responses: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Write replies strictly in request order (futures resolve FIFO)."""
        while True:
            item = await responses.get()
            if item is None:
                return
            message = await item
            await write_frame(writer, message)


def _done(message: dict) -> asyncio.Future:
    """An already-resolved reply, so every response rides the same FIFO."""
    future: asyncio.Future = asyncio.get_running_loop().create_future()
    future.set_result(message)
    return future


def _print_line(line: str) -> None:
    print(line, flush=True)
