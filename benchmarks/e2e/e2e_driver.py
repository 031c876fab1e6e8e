"""The benchmark's own open-loop load driver for ``daemon_open``.

The schedule is drawn up front from ``np.random.default_rng([seed,
stream])`` and fired from one coroutine regardless of how the daemon is
coping (an open loop: independent users do not wait for each other).
Every request is scored from the instant it was *due*, so a stall is
charged to every request it delayed, and ``send_lag`` reports how late
the generator itself ran.

Deliberately imports nothing from ``repro.serve.loadgen``: the shipped
load generator may change, the benchmark's load may not.  Requests are
written with the package's ``write_frame`` (callers pass it in; the
traced in-process run substitutes :func:`own_write_frame` to keep the
daemon's ``encode_frame`` counts clean).  Replies are read with
:func:`own_read_frame`: the package's ``read_frame`` treats a short
read of the 4-byte header as a closed connection, and under drain
bursts a reply header now and then does straddle two reads (one run in
a hundred died on it).  That is for ROADMAP item 4 to fix in ``src/``;
the benchmark must not fail on it in the meantime.
"""

from __future__ import annotations

import asyncio
import json
import struct
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Connection",
    "PhaseResult",
    "burst_schedule",
    "connect",
    "fire",
    "own_read_frame",
    "own_write_frame",
    "poisson_schedule",
    "shutdown",
]

_HEADER = struct.Struct(">I")


async def own_read_frame(reader: asyncio.StreamReader) -> dict | None:
    """One frame of the ``repro.serve.protocol`` wire format; None at EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
        (length,) = _HEADER.unpack(header)
        return json.loads(await reader.readexactly(length))
    except asyncio.IncompleteReadError:
        return None


async def own_write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    payload = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    writer.write(_HEADER.pack(len(payload)) + payload)
    await writer.drain()


def poisson_schedule(rate: float, duration: float, seed: int, stream: int) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process on ``[0, duration)``."""
    rng = np.random.default_rng([seed, stream])
    n_draw = int(rate * duration * 1.5) + 64
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=n_draw))
    while arrivals[-1] < duration:  # practically never: 1.5x head-room
        more = np.cumsum(rng.exponential(1.0 / rate, size=n_draw)) + arrivals[-1]
        arrivals = np.concatenate([arrivals, more])
    return arrivals[arrivals < duration]


def burst_schedule(n_requests: int) -> np.ndarray:
    """``n_requests`` all due at once: the drain-rate measurement."""
    return np.zeros(n_requests, dtype=np.float64)


@dataclass
class Connection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    client_id: int


@dataclass
class PhaseResult:
    """Everything one fired schedule observed, one entry per request."""

    scheduled: np.ndarray  # offsets from the phase start, seconds
    started: float  # perf_counter at the phase start
    send_lag: list = field(default_factory=list)  # seconds behind schedule, send order
    # Per request, in *schedule* order (filled by the receivers):
    rtt: np.ndarray | None = None  # reply time - due time; NaN when not ok
    server_ms: np.ndarray | None = None  # the reply's own latency_ms; NaN when not ok
    status: list | None = None  # "ok" | "shed" | "error" | "unanswered"
    finished: float = 0.0  # perf_counter at the last reply
    sample_reply: dict | None = None  # one ok reply, as received

    @property
    def n(self) -> int:
        return len(self.scheduled)

    def count(self, status: str) -> int:
        return sum(1 for s in self.status if s == status)

    @property
    def elapsed(self) -> float:
        return self.finished - self.started


async def connect(host: str, port: int, n: int, write_frame) -> list[Connection]:
    """Open ``n`` connections and say hello on each (one session apiece)."""
    connections = []
    for _ in range(n):
        reader, writer = await asyncio.open_connection(host, port)
        await write_frame(writer, {"op": "hello"})
        reply = await own_read_frame(reader)
        if not reply or not reply.get("ok"):
            raise ConnectionError(f"hello rejected: {reply!r}")
        connections.append(Connection(reader, writer, int(reply["client_id"])))
    return connections


async def fire(connections: list[Connection], scheduled: np.ndarray, write_frame) -> PhaseResult:
    """Fire one schedule open-loop; request ``i`` rides connection ``i mod n``."""
    n_conn = len(connections)
    result = PhaseResult(scheduled=scheduled, started=time.perf_counter())
    result.rtt = np.full(len(scheduled), np.nan)
    result.server_ms = np.full(len(scheduled), np.nan)
    result.status = ["unanswered"] * len(scheduled)
    in_flight: list[deque] = [deque() for _ in connections]
    start = result.started

    async def send() -> None:
        clock = time.perf_counter
        for i, offset in enumerate(scheduled.tolist()):
            due = start + offset
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            result.send_lag.append(max(0.0, clock() - due))
            lane = i % n_conn
            in_flight[lane].append((i, due))
            await write_frame(connections[lane].writer, {"op": "query"})

    async def receive(lane: int) -> None:
        connection = connections[lane]
        pending = in_flight[lane]
        expected = len(range(lane, len(scheduled), n_conn))
        for _ in range(expected):
            frame = await own_read_frame(connection.reader)
            now = time.perf_counter()
            if frame is None:
                return  # daemon went away; the rest stay "unanswered"
            i, due = pending.popleft()
            result.finished = max(result.finished, now)
            if frame.get("shed"):
                result.status[i] = "shed"
            elif not frame.get("ok"):
                result.status[i] = "error"
            else:
                result.status[i] = "ok"
                result.rtt[i] = now - due
                result.server_ms[i] = float(frame.get("latency_ms", np.nan))
                result.sample_reply = frame

    await asyncio.gather(send(), *(receive(lane) for lane in range(n_conn)))
    if not result.finished:
        result.finished = time.perf_counter()
    return result


async def shutdown(connections: list[Connection], write_frame) -> bool:
    """Ask for a graceful drain on the first connection; close them all."""
    first = connections[0]
    await write_frame(first.writer, {"op": "shutdown"})
    reply = await own_read_frame(first.reader)
    for connection in connections:
        connection.writer.close()
    return bool(reply and reply.get("ok") and reply.get("draining"))
