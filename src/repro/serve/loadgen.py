"""Open-loop load generation against the serving daemon.

Closed-loop clients (issue, wait, issue) can never overload a server:
their arrival rate collapses to the server's completion rate, hiding
exactly the queueing behavior a latency percentile exists to expose.
This generator is *open-loop*: the entire arrival schedule is drawn up
front from a seeded process -- Poisson (memoryless interactive users)
or bursty (an on/off Markov-modulated Poisson process: quiet baseline
traffic punctuated by request storms) -- and requests are fired at
their scheduled times regardless of how the server is coping.

Latency is measured from each request's *scheduled* send time, not from
the moment the socket write happened, so a generator that falls behind
a slow server cannot hide that delay (the coordinated-omission trap).

Determinism: the schedule, its length, and the request-to-connection
assignment depend only on ``(process, rate, requests/duration, seed)``,
so a seeded run always issues the same request count against the same
session pool -- wall-clock latencies vary, counts never do.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.serve.latency import LatencyRecorder
from repro.serve.protocol import read_frame, write_frame

__all__ = ["bursty_arrivals", "poisson_arrivals", "run_loadgen"]

#: Mean lengths (s) of the bursty process's ON (storm) and OFF phases.
ON_MEAN_S = 0.2
OFF_MEAN_S = 0.6

#: How long (s) to keep retrying a connection while the daemon boots.
CONNECT_TIMEOUT_S = 10.0


def poisson_arrivals(
    rate: float,
    *,
    n_requests: int | None = None,
    duration: float | None = None,
    seed: int = 0,
) -> np.ndarray:
    """Absolute arrival times (seconds) of a Poisson process.

    Exactly one of ``n_requests`` (fixed count) and ``duration`` (fixed
    horizon; the count is then a deterministic function of the seed)
    must be given.
    """
    _check_schedule_args(rate, n_requests, duration)
    rng = np.random.default_rng([seed, 0x90155])
    if n_requests is not None:
        return np.cumsum(rng.exponential(1.0 / rate, size=n_requests))
    arrivals: list[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        if t > duration:
            return np.asarray(arrivals)
        arrivals.append(t)


def bursty_arrivals(
    rate: float,
    *,
    n_requests: int | None = None,
    duration: float | None = None,
    seed: int = 0,
    burst: float = 8.0,
) -> np.ndarray:
    """On/off Markov-modulated Poisson arrivals.

    The process alternates exponentially-long OFF phases (baseline rate
    ``rate``) and ON phases (storm rate ``burst * rate``), starting OFF.
    Same count semantics as :func:`poisson_arrivals`.
    """
    _check_schedule_args(rate, n_requests, duration)
    if burst < 1.0:
        raise ValueError(f"burst factor must be >= 1, got {burst}")
    rng = np.random.default_rng([seed, 0xB5257])
    arrivals: list[float] = []
    t = 0.0
    on = False
    while True:
        phase_rate = rate * burst if on else rate
        phase_end = t + rng.exponential(ON_MEAN_S if on else OFF_MEAN_S)
        next_arrival = t + rng.exponential(1.0 / phase_rate)
        while next_arrival < phase_end:
            if duration is not None and next_arrival > duration:
                return np.asarray(arrivals)
            arrivals.append(next_arrival)
            if n_requests is not None and len(arrivals) >= n_requests:
                return np.asarray(arrivals)
            next_arrival += rng.exponential(1.0 / phase_rate)
        if duration is not None and phase_end > duration:
            return np.asarray(arrivals)
        t = phase_end
        on = not on


def _check_schedule_args(rate: float, n_requests: int | None, duration: float | None) -> None:
    if rate <= 0:
        raise ValueError(f"arrival rate must be positive, got {rate}")
    if (n_requests is None) == (duration is None):
        raise ValueError("give exactly one of n_requests and duration")
    if n_requests is not None and n_requests < 1:
        raise ValueError(f"n_requests must be >= 1, got {n_requests}")
    if duration is not None and duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")


ARRIVAL_PROCESSES = {"poisson": poisson_arrivals, "bursty": bursty_arrivals}


async def _connect_with_retry(host: str, port: int):
    """Open a connection, retrying while the daemon is still booting."""
    deadline = time.perf_counter() + CONNECT_TIMEOUT_S
    while True:
        try:
            return await asyncio.open_connection(host, port)
        except OSError:
            if time.perf_counter() >= deadline:
                raise
            await asyncio.sleep(0.05)


async def _drive_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    schedule: np.ndarray,
    start: float,
    recorder: LatencyRecorder,
) -> int:
    """Fire one connection's slice of the schedule, open-loop.

    The sender writes each query frame at its scheduled offset from
    ``start``; the reader matches responses FIFO (the daemon answers
    per-connection frames in order) and scores latency against the
    *scheduled* time.  Returns the most ``sessions_completed`` a reply
    carried.
    """

    async def send() -> None:
        for offset in schedule:
            delay = (start + offset) - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await write_frame(writer, {"op": "query"})

    async def receive() -> int:
        completed = 0
        for offset in schedule:
            frame = await read_frame(reader)
            if frame is None:
                raise ConnectionError("daemon closed the connection mid-load")
            now = time.perf_counter()
            if frame.get("shed"):
                recorder.count_shed()
            elif not frame.get("ok"):
                recorder.count_error()
            else:
                recorder.observe(max(0.0, now - (start + offset)))
                completed = max(completed, frame.get("sessions_completed", 0))
        return completed

    _, completed = await asyncio.gather(send(), receive())
    return completed


async def run_loadgen(
    host: str,
    port: int,
    *,
    connections: int = 4,
    process: str = "poisson",
    rate: float = 200.0,
    requests: int | None = None,
    duration: float | None = None,
    seed: int = 0,
    burst: float = 8.0,
    shutdown: bool = False,
) -> dict:
    """Drive a seeded open-loop load against a running daemon.

    Returns the client-side report: request counts (deterministic for a
    given seed), the latency percentile summary, and achieved
    throughput.  ``shutdown=True`` sends a graceful ``shutdown`` after
    the load completes and confirms the daemon acknowledged the drain.
    """
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    if process not in ARRIVAL_PROCESSES:
        known = ", ".join(sorted(ARRIVAL_PROCESSES))
        raise ValueError(f"unknown arrival process {process!r}; known: {known}")
    kwargs = {"n_requests": requests, "duration": duration, "seed": seed}
    if process == "bursty":
        kwargs["burst"] = burst
    schedule = ARRIVAL_PROCESSES[process](rate, **kwargs)
    n_scheduled = len(schedule)
    # Deterministic round-robin request-to-connection assignment.
    slices = [schedule[i::connections] for i in range(connections)]

    streams = []
    try:
        for _ in range(connections):
            streams.append(await _connect_with_retry(host, port))
        client_ids = []
        for reader, writer in streams:
            await write_frame(writer, {"op": "hello"})
            reply = await read_frame(reader)
            if reply is None or not reply.get("ok"):
                raise ConnectionError(f"hello rejected: {reply!r}")
            client_ids.append(reply["client_id"])

        recorder = LatencyRecorder()
        start = time.perf_counter()
        completed = await asyncio.gather(
            *(
                _drive_connection(reader, writer, piece, start, recorder)
                for (reader, writer), piece in zip(streams, slices)
            )
        )
        elapsed = time.perf_counter() - start

        drained = None
        if shutdown:
            reader, writer = streams[0]
            await write_frame(writer, {"op": "shutdown"})
            reply = await read_frame(reader)
            drained = bool(reply and reply.get("ok") and reply.get("draining"))
        else:
            for reader, writer in streams:
                await write_frame(writer, {"op": "bye"})
                await read_frame(reader)
    finally:
        for _, writer in streams:
            writer.close()

    latency = recorder.total()
    return {
        "type": "loadgen",
        "process": process,
        "offered_rate": rate,
        "burst": burst if process == "bursty" else None,
        "seed": seed,
        "connections": connections,
        "client_ids": client_ids,
        "requests": n_scheduled,
        "ok": latency["count"],
        "shed": latency["shed"],
        "errors": latency["errors"],
        "sessions_completed_max": max(completed),
        "elapsed_seconds": elapsed,
        "achieved_qps": latency["count"] / elapsed if elapsed > 0 else 0.0,
        "drained": drained,
        "latency": latency,
    }
