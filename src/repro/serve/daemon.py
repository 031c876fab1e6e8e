"""The ``scout-repro serve`` asyncio daemon (DESIGN.md §8).

One process owns the serving plane the simulator shares out: a dataset,
its page-granular index, one shared prefetch cache and one disk model.
The config's :class:`~repro.sim.engine.SimulationConfig` builds both, as
it builds them for a simulation run (sharded, fault-wrapped with
DESIGN.md §7's per-client circuit breakers, tiered: DESIGN.md §6.3's
one pass-through rule); the daemon has no layer rule of its own.  Each
client *connection* runs a
:class:`~repro.sim.engine.QuerySession`.  One worker steps the admitted
queries inline on the loop through the simulator's own tick,
:func:`~repro.sim.serve.step_tick`, in FIFO order, a tick ending at the
first query whose connection is already in it: concurrency lives in
the *queueing*, not in threads, and the shared cache is single-writer
by construction.  Each pool walk's index results are fetched at boot;
when plans are shareable every pool walk is also taped at boot, in one
:func:`~repro.sim.serve.plan_tapes` call, and the tick replays the tape
instead of recomputing the pure work, for each session until its
breaker first opens; cache touches, disk reads and budget spending
still run per request, in FIFO order.

Admission is a bounded deque of jobs: a ``query`` arriving while
``max_queue`` requests are already waiting is shed immediately with a
``shed: true`` reply instead of queueing without bound -- overload
degrades into fast rejections and honest shed counts, not into a
latency collapse.  Request latency is measured from *enqueue* to
reply-ready, so queueing delay is part of every percentile.  Every
report reads one ledger (:class:`~repro.serve.latency.LatencyRecorder`,
which also holds the shed count): an interval report summarizes it
from the last interval's end, ``stats`` and the final report all of it.

Replies leave in request order through each connection's deque of
reply slots: every reply but a query's fills its slot at once, the
worker fills a query's, and a flush writes all the leading filled
slots as one ``write``.  The worker flushes the connections it touched
after each pass (``WORKER_BATCH`` jobs at most, then it yields to the
loop), so a drain burst costs one write per connection per pass, and
under light load each reply still leaves the moment it is computed.
The connection handler reads whole chunks and cuts the frames out with
:class:`~repro.serve.protocol.FrameSplitter`; a frame left half-sent for
:data:`FRAME_STALL_S` costs its connection one error reply and the close.

Graceful shutdown (``shutdown`` op, SIGINT or SIGTERM) stops accepting
connections, drains every queued request to a real response (a sentinel
job queues behind them all), then writes the final latency report.
``run_async`` borrows both signals from before its ``ready`` line until
the drain is done and then hands back the caller's handlers;
``scout-repro serve`` ignores them from there on, so signals that keep
arriving still leave an exit status 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import signal
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.quickstart import default_prefetcher
from repro.serve.latency import LatencyRecorder
from repro.serve.protocol import FrameSplitter, ProtocolError, encode_frame
from repro.sim.engine import QuerySession, SimulationConfig, SimulationEngine, walk_results
from repro.sim.serve import plan_tapes, plans_shareable, step_tick
from repro.storage.sharded import ShardedCache, ShardSpec
from repro.storage.tiered import StorageSpec, TieredStore
from repro.workload.multiclient import multiclient_sessions

__all__ = ["DaemonConfig", "STOP_SIGNALS", "ServeDaemon"]

#: The signals that drain the daemon.  ``run_async`` handles them from
#: before its ``ready`` line until the drain is done, then hands them
#: back as it found them.
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM)

#: Query volume of every walk in the session pool.
QUERY_VOLUME = 30_000.0

#: Most jobs the worker runs before it flushes and lets the loop run
#: (reads, ``stats``, new connections, signals) during a long drain.
WORKER_BATCH = 256

#: Bytes the connection handler asks the socket for at a time.
READ_CHUNK_BYTES = 64 * 1024

#: Seconds the drain waits for closed connections to flush what they
#: are owed; a peer that is not reading by then has its transport
#: aborted, or its unsent replies would hold the shutdown forever.
CLOSE_GRACE_S = 2.0

#: Seconds a begun frame has to complete.  A peer that stalls or trickles
#: mid-frame longer (slow-loris headers) gets one error reply and is
#: closed; between frames a connection may idle for as long as it likes.
FRAME_STALL_S = 10.0


@dataclass(frozen=True)
class DaemonConfig:
    """Everything ``scout-repro serve`` needs to stand up a serving plane."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Synthetic tissue size backing the daemon's dataset and index.
    n_neurons: int = 16
    #: Root seed of the workload pool.
    seed: int = 21
    #: Prefetcher every session runs, one of
    #: :data:`repro.quickstart.PREFETCHER_NAMES`.
    prefetcher: str = "ewma"
    #: Distinct navigation walks in the session pool; connection ``i``
    #: replays walk ``i mod pool`` (hotspot mode Zipf-shares the pool).
    session_pool: int = 8
    #: Queries per session; an exhausted session is renewed in place.
    queries_per_session: int = 20
    mode: str = "hotspot"
    #: Admission-control bound: queries queued beyond this are shed.
    max_queue: int = 64
    #: Seconds between interval latency reports on stdout.
    report_interval: float = 5.0
    #: Where to write the final JSON report (``None``: stdout only).
    report_path: str | None = None
    #: The serving plane's layers, built by the one pass-through rule
    #: (DESIGN.md §6.3): the shared cache's size and shards, the disk's
    #: fault plan (which also arms per-client breakers, DESIGN.md §7) and
    #: its tiered store.
    sim: SimulationConfig = SimulationConfig()


class _Slot:
    """One reply a connection owes: its encoded frame, ``None`` until ready."""

    __slots__ = ("frame",)

    def __init__(self, frame: bytes):
        self.frame = frame


class _Job(_Slot):
    """One admitted query: the reply slot the worker fills."""

    __slots__ = ("state", "outbox", "enqueued_at")

    def __init__(self, state: "_ConnectionState", outbox: "_Outbox", enqueued_at: float):
        self.frame = None
        self.state = state
        self.outbox = outbox
        self.enqueued_at = enqueued_at


class _Outbox:
    """One connection's reply slots, in request order, and their writer.

    ``settled`` is set by a closing handler that waits for the slots it
    still owes; the flush that empties them resolves it.
    """

    __slots__ = ("writer", "slots", "settled")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.slots: deque[_Slot] = deque()
        self.settled: asyncio.Future | None = None

    def reply(self, message: dict) -> None:
        """Queue a reply that is ready now (it still waits its turn)."""
        self.slots.append(_Slot(encode_frame(message)))

    def flush(self) -> None:
        """Write every leading filled slot in one ``write``."""
        slots = self.slots
        frames = []
        while slots and slots[0].frame is not None:
            frames.append(slots.popleft().frame)
        # A peer that is gone has nothing left to receive.
        if frames and not self.writer.is_closing():
            self.writer.write(b"".join(frames))
        if not slots and self.settled is not None and not self.settled.done():
            self.settled.set_result(None)


class _ConnectionState:
    """One connection's session slot (renewed in place when exhausted)."""

    __slots__ = ("client_id", "session", "sessions_completed")

    def __init__(self, client_id: int, session: QuerySession):
        self.client_id = client_id
        self.session = session
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
        if not config.report_interval > 0:
            raise ValueError(f"report_interval must be > 0, got {config.report_interval}")

        self.dataset = make_neuron_tissue(n_neurons=config.n_neurons, seed=config.seed)
        self.index = FlatIndex(self.dataset, fanout=16)
        self.engine = SimulationEngine(self.index, config.sim)
        self.cache = config.sim.build_cache(self.index)
        # An mmap store opens its page file here: a bad --pagefile fails the boot.
        self.disk = config.sim.build_disk(self.index)
        self.pool = multiclient_sessions(
            self.dataset,
            n_clients=config.session_pool,
            seed=config.seed,
            n_queries=config.queries_per_session,
            volume=QUERY_VOLUME,
            mode=config.mode,
        )
        self._make_prefetcher = functools.partial(
            default_prefetcher(config.prefetcher).build, self.dataset, self.index
        )
        # Per pool walk (DESIGN.md §8): its index results and, when plans
        # are shareable, its plan tape, both built here from one throwaway
        # session per walk (every session runs the configured prefetcher,
        # so one instance decides eligibility for all).  A build that
        # raises fails the boot.
        self._results = [walk_results(self.index, client.sequence) for client in self.pool]
        self._tapes: list[list | None] = [None] * len(self.pool)
        if plans_shareable([self._make_prefetcher()]):
            walks = range(len(self.pool))
            self._tapes = plan_tapes(self.index, [self._session(walk, None) for walk in walks])

        self.recorder = LatencyRecorder()
        #: Each interval report's latency summary, in order.
        self.intervals: list[dict] = []
        self.requests_admitted = 0
        #: Requests served from a plan tape instead of observe/plan work.
        self.plans_replayed = 0
        self._interval_replayed_mark = 0
        self.sessions_completed = 0
        self.queue_depth_max = 0
        self._interval_depth_max = 0

        self._next_client_id = 0
        #: Admitted jobs in FIFO order; ``None`` is the shutdown sentinel.
        self._jobs: deque[_Job | None] = deque()
        #: What the idle worker sleeps on (set only while it sleeps).
        self._wakeup: asyncio.Future | None = None
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

    async def start(self) -> None:
        """Bind the listener and start the worker (no reporter yet)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._worker_task = asyncio.create_task(self._worker())

    async def run_async(self, announce: Callable[[str], None]) -> dict:
        """Serve until drained; returns (and optionally writes) the final report.

        ``announce`` receives one JSON line per event (``ready``, each
        interval report, the final report) -- the daemon's stdout
        contract that the reach driver and the load generator parse.
        """
        if self._server is None:
            await self.start()
        # The handlers go in before ``ready``: a supervisor may signal the
        # moment it reads that line.
        hand_back = self._borrow_stop_signals(asyncio.get_running_loop())
        try:
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
            await self._stopped.wait()
        finally:
            hand_back()
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

    def _borrow_stop_signals(self, loop) -> Callable[[], None]:
        """Route SIGINT / SIGTERM to :meth:`shutdown`; returns the hand-back.

        Not ``loop.add_signal_handler``: removing one resets the signal to
        its default action before the caller's handler can go back, and a
        SIGTERM in between kills the process.  Here every handler changes
        hands in one ``signal.signal`` call, and the loop is woken through
        the interpreter's signal wakeup fd.  Off the main thread nothing
        is borrowed.
        """
        if threading.current_thread() is not threading.main_thread():
            return lambda: None
        reader, writer = socket.socketpair()
        reader.setblocking(False)
        writer.setblocking(False)
        found_fd = signal.set_wakeup_fd(writer.fileno())

        def on_wakeup() -> None:
            received = reader.recv(4096)
            # Once draining, a further signal has nothing left to stop.
            if any(signum in received for signum in STOP_SIGNALS) and not self._draining:
                asyncio.ensure_future(self.shutdown())

        loop.add_reader(reader, on_wakeup)
        found = {signum: signal.signal(signum, _wakeup_fd_only) for signum in STOP_SIGNALS}

        def hand_back() -> None:
            for signum, handler in found.items():
                signal.signal(signum, handler)
            signal.set_wakeup_fd(found_fd)
            loop.remove_reader(reader)
            reader.close()
            writer.close()

        return hand_back

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
        # Every already-admitted request still gets a real response: the
        # sentinel queues behind them all, and the worker flushes every
        # reply slot it fills before it returns.
        self._enqueue(None)
        if self._worker_task is not None:
            await self._worker_task
        await self._close_connections()
        if self._server is not None:
            # Only now: from Python 3.12.1 this waits for every connection
            # to close, so ahead of the drain one idle peer would hold it.
            await self._server.wait_closed()
        if isinstance(self.disk, TieredStore):
            self.disk.close()
        self._stopped.set()

    async def _close_connections(self) -> None:
        """Close every connection; abort one still open after :data:`CLOSE_GRACE_S`.

        ``close`` waits for the send buffer to empty, so a peer that never
        reads keeps its connection -- and with it the handler parked in
        ``drain`` -- open for as long as it stays connected.
        """
        writers = list(self._writers)
        for writer in writers:
            with contextlib.suppress(ConnectionError):
                writer.close()
        closes = [asyncio.ensure_future(writer.wait_closed()) for writer in writers]
        if not closes:
            return
        await asyncio.wait(closes, timeout=CLOSE_GRACE_S)
        for writer, closed in zip(writers, closes):
            if not closed.done():
                writer.transport.abort()
        # Also collects a reset peer's error, which nobody else awaits.
        await asyncio.gather(*closes, return_exceptions=True)

    def _books(self) -> dict:
        """The counters the final report and the ``stats`` reply share."""
        return {
            "requests_admitted": self.requests_admitted,
            "plans_replayed": self.plans_replayed,
            "requests_shed": self.recorder.shed,
            "sessions_completed": self.sessions_completed,
            "queue_depth_max": self.queue_depth_max,
            "latency": self.recorder.total(),
        }

    def final_report(self) -> dict:
        """The end-of-run JSON report (also written to ``report_path``)."""
        return {
            "type": "final",
            "drained": self._stopped.is_set() or self._draining,
            **self._books(),
            "intervals": self.intervals,
            "cache": {
                "capacity_pages": self.cache.capacity_pages,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "evictions": self.cache.evictions,
                "insertions": self.cache.insertions,
            },
            "faults_active": self.config.sim.faults is not None,
            "storage": self._storage_report(),
            "shards": self._shards_report(),
        }

    def _storage_report(self) -> dict:
        """The tiered-store slice of the final report (stats survive close)."""
        spec = self.config.sim.storage or StorageSpec()
        report: dict = {
            "backend": spec.backend,
            "miss_path": spec.miss_path,
            "tier_pages": spec.tier_pages,
        }
        if isinstance(self.disk, TieredStore):
            ts = self.disk.tier_stats
            report.update(
                requests=ts.requests,
                tier_hits=ts.tier_hits,
                miss_path_hits=ts.mechanism_hits,
                backing_pages=ts.backing_pages,
                torn_detected=ts.torn_detected,
                torn_repaired=ts.torn_repaired,
            )
        return report

    def _shards_report(self) -> dict:
        """The sharded-cache slice of the final report (counters when K > 1)."""
        spec = self.config.sim.shards or ShardSpec()
        report: dict = {"n_shards": spec.n_shards, "partition": spec.partition}
        if isinstance(self.cache, ShardedCache):
            report.update(
                per_shard=self.cache.per_shard_stats(),
                rebalance_events=self.cache.rebalance_events,
                pages_moved=self.cache.pages_moved,
                hops=self.cache.hops,
            )
        return report

    # -- background tasks --------------------------------------------------------

    async def _worker(self) -> None:
        """Run up to ``WORKER_BATCH`` admitted jobs a pass, in FIFO order, then flush;
        a tick ends at the first job whose connection is already in it."""
        jobs = self._jobs
        loop = asyncio.get_running_loop()
        while True:
            batch, tick = [], {}
            while jobs and jobs[0] is not None and len(batch) < WORKER_BATCH:
                batch.append(jobs.popleft())
            for job in batch:
                if job.state in tick:
                    self._run_tick(tick)
                    tick = {}
                self._join(job, tick)
            self._run_tick(tick)
            for outbox in {job.outbox for job in batch}:
                outbox.flush()
            if jobs and jobs[0] is None:  # the shutdown sentinel, behind every job
                jobs.popleft()
                return
            if jobs:
                await asyncio.sleep(0)
            else:
                self._wakeup = loop.create_future()
                await self._wakeup

    def _enqueue(self, job: _Job | None) -> None:
        """Append to the admission deque and wake the worker if it sleeps."""
        self._jobs.append(job)
        if self._wakeup is not None:
            self._wakeup.set_result(None)
            self._wakeup = None

    def _join(self, job: _Job, tick: dict) -> None:
        """Add a job to the tick, renewing its exhausted session first."""
        state = job.state
        if state.session.done:
            state.session = state.session.renew(self._make_prefetcher())
            state.sessions_completed += 1
            self.sessions_completed += 1
        tick[state] = job

    def _run_tick(self, tick: dict) -> None:
        """Step one tick; a step that raises fails its job and every job behind it."""
        records = step_tick(self.index, [state.session for state in tick])
        try:
            for (state, job), (record, replayed) in zip(tick.items(), records):
                self.plans_replayed += replayed
                latency = time.perf_counter() - job.enqueued_at
                self.recorder.observe(latency)
                job.frame = encode_frame(
                    {
                        "ok": True,
                        "client_id": state.client_id,
                        "query_index": record.index,
                        "pages_needed": record.pages_needed,
                        "pages_hit": record.pages_hit,
                        "prefetch_pages": record.prefetch_pages,
                        "session_done": state.session.done,
                        "sessions_completed": state.sessions_completed,
                        "latency_ms": 1e3 * latency,
                    }
                )
        except Exception as error:  # defensive: a session bug must not kill the loop
            frame = encode_frame({"ok": False, "error": f"{type(error).__name__}: {error}"})
            for job in tick.values():
                if job.frame is None:
                    self.recorder.count_error()
                    job.frame = frame

    async def _reporter(self, announce) -> None:
        """Emit one interval latency report per ``report_interval`` seconds."""
        while True:
            await asyncio.sleep(self.config.report_interval)
            announce(json.dumps(self.interval_report()))

    def interval_report(self) -> dict:
        """Snapshot the open interval into a JSON report."""
        summary = self.recorder.snapshot()
        self.intervals.append(summary)
        depth_max = self._interval_depth_max
        self._interval_depth_max = 0
        replayed = self.plans_replayed - self._interval_replayed_mark
        self._interval_replayed_mark = self.plans_replayed
        return {
            "type": "interval",
            "interval": len(self.intervals) - 1,
            "queue_depth": len(self._jobs),
            "queue_depth_max": depth_max,
            "connections": len(self._writers),
            "plans_replayed": replayed,
            **summary,
        }

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        outbox = _Outbox(writer)
        closing = None
        try:
            try:
                closing = await self._read_requests(reader, outbox)
            except ProtocolError as error:
                outbox.reply({"ok": False, "error": str(error)})
            except ConnectionError:
                pass
            outbox.flush()
            if outbox.slots:
                # The worker still owes replies here; close only after them.
                outbox.settled = asyncio.get_running_loop().create_future()
                await outbox.settled
        except asyncio.CancelledError:
            # Only the loop's own teardown cancels a handler, and a
            # connection task that ends cancelled is reported there as an
            # unhandled error (Python 3.11).
            return
        finally:
            self._writers.discard(writer)
            writer.close()
        if closing == "shutdown":
            # Trigger the drain only after the shutdown acknowledgement
            # has been written to the requester.
            await self.shutdown()

    async def _read_requests(self, reader: asyncio.StreamReader, outbox: _Outbox) -> str | None:
        """Answer or admit each request until EOF, ``bye`` or ``shutdown``.

        Returns the op that ended the connection (``None`` at EOF).
        ``drain`` once per chunk stops reading a peer that stops reading
        once its replies pass the transport's high-water mark.  A read
        has a deadline only while a partial frame waits for its rest: the
        frame's start plus :data:`FRAME_STALL_S`, reset whenever a frame
        completes, so whole-frame traffic pays nothing and a pipelined
        stream cut mid-frame by every chunk is never timed out.
        """
        frames = FrameSplitter()
        state: _ConnectionState | None = None
        stall_at = None  # loop time by which the begun frame must complete
        while True:
            if frames.partial:
                if stall_at is None:
                    stall_at = asyncio.get_running_loop().time() + FRAME_STALL_S
                try:
                    async with asyncio.timeout_at(stall_at):
                        chunk = await reader.read(READ_CHUNK_BYTES)
                except TimeoutError:
                    raise ProtocolError(f"frame stalled for {FRAME_STALL_S} s") from None
            else:
                chunk = await reader.read(READ_CHUNK_BYTES)
            if not chunk:
                frames.eof()
                return None
            for message in frames.feed(chunk):
                stall_at = None
                op = message.get("op")
                if op == "query":
                    self._admit(state, outbox)
                elif op == "hello":
                    state = self._open_session()
                    outbox.reply(
                        {
                            "ok": True,
                            "client_id": state.client_id,
                            "n_queries": len(state.session.sequence),
                            "prefetcher": self.config.prefetcher,
                        }
                    )
                elif op == "stats":
                    outbox.reply(self._stats_reply())
                elif op == "shutdown":
                    outbox.reply({"ok": True, "draining": True})
                    return op
                elif op == "bye":
                    outbox.reply({"ok": True, "bye": True})
                    return op
                else:
                    outbox.reply({"ok": False, "error": f"unknown op {op!r}"})
            outbox.flush()
            await outbox.writer.drain()

    def _open_session(self) -> _ConnectionState:
        client_id = self._next_client_id
        self._next_client_id += 1
        return _ConnectionState(client_id, self._session(client_id % len(self.pool), client_id))

    def _session(self, walk: int, client_id: int | None) -> QuerySession:
        """A fresh session on pool walk ``walk``, with its results and tape."""
        return QuerySession(
            self.engine,
            self.pool[walk].sequence,
            self._make_prefetcher(),
            cache=self.cache,
            disk=self.disk,
            client_id=client_id,
            results=self._results[walk],
            tape=self._tapes[walk],
        )

    def _admit(self, state: _ConnectionState | None, outbox: _Outbox) -> None:
        """Admission control: queue the query, or answer it now (shed or error)."""
        if state is None:
            outbox.reply({"ok": False, "error": "query before hello"})
        elif self._draining or len(self._jobs) >= self.config.max_queue:
            # A query refused during the drain is shed like one refused
            # at the bound, so the books still partition what was offered.
            self.recorder.count_shed()
            if self._draining:
                outbox.reply({"ok": False, "shed": True, "error": "draining"})
            else:
                outbox.reply({"ok": False, "shed": True})
        else:
            job = _Job(state, outbox, time.perf_counter())
            outbox.slots.append(job)
            self._enqueue(job)
            self.requests_admitted += 1
            depth = len(self._jobs)
            self.queue_depth_max = max(self.queue_depth_max, depth)
            self._interval_depth_max = max(self._interval_depth_max, depth)

    def _stats_reply(self) -> dict:
        return {
            "ok": True,
            **self._books(),
            "queue_depth": len(self._jobs),
            "connections": len(self._writers),
        }


def _wakeup_fd_only(signum, frame) -> None:
    """A stop signal's Python half: nothing (the wakeup fd woke the loop)."""
