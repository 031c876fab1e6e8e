"""``daemon_open``: the real daemon as a subprocess, driven open-loop over TCP.

The only workload that crosses ``serve.protocol`` + ``serve.daemon``
(framing, admission queue, the single FIFO worker, asyncio).  Phases:

``setup``
    spawn -> ``ready`` line, three daemons (the third one is measured);
``warm-up``
    a burst that walks every session once, so caches are filled;
``rate ladder``
    seeded Poisson arrivals at fixed rates, scored from each request's
    *scheduled* send time, one window at a time.  The untraced run measures
    the 300 q/s rung only (it feeds ``latency_p50_ms``); the traced run
    climbs 300 / 600 / 1200 q/s for the per-layer table;
``drain``
    bursts offered all at once (the queue holds them, nothing sheds):
    burst rate = requests / time to the last reply.

Sessions = connections = ``min(nproc, 4)``: the harness is one thread
and must not be the bottleneck it measures.  A change whose mechanism
needs more concurrent sessions than that has to extend this workload in
a benchmark change of its own.

The traced run additionally boots ``ServeDaemon`` *in-process* on the
harness's loop and drains bursts through it with the span shims on; the
harness speaks its own framing there, so every ``encode_frame`` /
``decode_frame`` span is the daemon's.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.protocol import write_frame

import e2e_driver as driver
from e2e_machine import calibrate

__all__ = ["DaemonOutcome", "DaemonSizes", "run_subprocess_phases", "run_traced_bursts"]

HOST = "127.0.0.1"
LADDER_RATES = (300, 600, 1200)
GATED_RATE = 300
SLO_P99_MS = 20.0


@dataclass(frozen=True)
class DaemonSizes:
    """Phase sizes, derived from the ``--seconds`` budget."""

    n_neurons: int
    queries_per_session: int
    warmup: int
    window_s: float
    n_windows: int
    burst: int
    n_bursts: int
    n_setups: int

    @classmethod
    def of(cls, seconds: float, trace: bool, smoke: bool) -> "DaemonSizes":
        if smoke:
            return cls(8, 8, 40, 0.25, 2, 120, 2, 1)
        if trace:
            # Three rungs share the budget; the drain moves in-process.
            return cls(16, 16, 400, max(0.25, seconds / 30.0), 4, int(60 * seconds), 4, 1)
        return cls(16, 16, 400, max(0.25, seconds / 15.0), 8, int(100 * seconds), 10, 3)

    def serve_args(self, seed: int) -> list[str]:
        return [
            "serve",
            "--port",
            "0",
            "--neurons",
            str(self.n_neurons),
            "--pool",
            "8",
            "--queries-per-session",
            str(self.queries_per_session),
            "--prefetcher",
            "ewma",
            "--max-queue",
            "4096",
            "--report-interval",
            "3600",
            "--seed",
            str(seed),
        ]


def n_connections() -> int:
    return max(1, min(os.cpu_count() or 1, 4))


# -- the child process ----------------------------------------------------------


class Daemon:
    """One ``python -m repro.cli serve`` child and its stdout contract."""

    def __init__(self, src_dir: str, args: list[str]) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        self._buffer = b""
        try:
            ready = json.loads(self._read_line(timeout=120.0))
        except Exception:
            self.kill()
            raise
        self.ready_seconds = time.perf_counter() - spawned
        if ready.get("type") != "ready":
            self.kill()
            raise RuntimeError(f"daemon's first line was not 'ready': {ready!r}")
        self.port = int(ready["port"])

    def _read_line(self, timeout: float) -> str:
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise TimeoutError("daemon printed nothing in time")
            chunk = os.read(fd, 65536)
            if not chunk:
                stderr = self.proc.stderr.read().decode("utf-8", "replace")[-2000:]
                raise RuntimeError(f"daemon exited before its line: {stderr}")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line.decode("utf-8")

    def cpu_seconds(self) -> float:
        """user+sys CPU of the child so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def finish(self, timeout: float = 60.0) -> tuple[int, dict | None]:
        """Wait for the drained child; ``(exit code, final report)``."""
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            return -9, None
        final = None
        for line in (self._buffer + out).decode("utf-8", "replace").splitlines():
            if line.startswith("{"):
                record = json.loads(line)
                if record.get("type") == "final":
                    final = record
        return self.proc.returncode, final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


# -- outcomes ---------------------------------------------------------------------


@dataclass
class DaemonOutcome:
    """Raw measurements of the subprocess phases (no statistics yet)."""

    ready: list = field(default_factory=list)  # (spawn -> ready seconds, cal seconds)
    rungs: dict = field(default_factory=dict)  # rate -> [(PhaseResult, cal seconds)] per window
    bursts: list = field(default_factory=list)  # (PhaseResult, cal seconds)
    warmup: object = None
    cpu_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    drained: bool = False
    exit_code: int | None = None
    final: dict | None = None

    def phases(self) -> list:
        windows = [result for rung in self.rungs.values() for result, _ in rung]
        return [self.warmup, *windows, *(result for result, _ in self.bursts)]

    def count(self, status: str) -> int:
        return sum(phase.count(status) for phase in self.phases())

    @property
    def scheduled(self) -> int:
        return sum(phase.n for phase in self.phases())


def _quick_setup(src_dir: str, sizes: DaemonSizes, seed: int, cal_budget: float) -> tuple:
    """Boot a daemon only to time its spawn -> ready, then drain it."""
    cal_before = calibrate(cal_budget)
    daemon = Daemon(src_dir, sizes.serve_args(seed))
    try:
        cal = (cal_before + calibrate(cal_budget)) / 2.0

        async def stop() -> bool:
            connections = await driver.connect(HOST, daemon.port, 1, write_frame)
            return await driver.shutdown(connections, write_frame)

        asyncio.run(stop())
        daemon.finish()
    except Exception:
        daemon.kill()
        raise
    return daemon.ready_seconds, cal


def run_subprocess_phases(
    src_dir: str, seed: int, sizes: DaemonSizes, trace: bool, cal_budget: float
) -> DaemonOutcome:
    """Set-up, warm-up, ladder and drain against a child daemon."""
    outcome = DaemonOutcome()
    for _ in range(sizes.n_setups - 1):
        outcome.ready.append(_quick_setup(src_dir, sizes, seed, cal_budget))
    cal_before = calibrate(cal_budget)
    daemon = Daemon(src_dir, sizes.serve_args(seed))
    outcome.ready.append((daemon.ready_seconds, (cal_before + calibrate(cal_budget)) / 2.0))
    rates = LADDER_RATES if trace else (GATED_RATE,)

    async def phases() -> None:
        connections = await driver.connect(HOST, daemon.port, n_connections(), write_frame)

        async def fire(schedule: np.ndarray):
            return await driver.fire(connections, schedule, write_frame)

        async def measured(schedule: np.ndarray) -> tuple:
            # Every phase sits between two calibration readings (the host
            # changes speed within a rung); neighbours share one.
            nonlocal cal_last
            cal_before = cal_last
            result = await fire(schedule)
            cal_last = calibrate(cal_budget)
            return result, (cal_before + cal_last) / 2.0

        outcome.warmup = await fire(driver.burst_schedule(sizes.warmup))
        cpu_started = daemon.cpu_seconds()
        cal_last = calibrate(cal_budget)
        for rate in rates:
            outcome.rungs[rate] = [
                await measured(
                    driver.poisson_schedule(rate, sizes.window_s, seed, stream=1000 * rate + w)
                )
                for w in range(sizes.n_windows)
            ]
        for _ in range(0 if trace else sizes.n_bursts):
            outcome.bursts.append(await measured(driver.burst_schedule(sizes.burst)))
        outcome.cpu_seconds = daemon.cpu_seconds() - cpu_started
        outcome.peak_rss_mb = daemon.peak_rss_mb()
        outcome.drained = await driver.shutdown(connections, write_frame)

    try:
        asyncio.run(phases())
        outcome.exit_code, outcome.final = daemon.finish()
    except Exception:
        daemon.kill()
        raise
    return outcome


# -- the traced, in-process drain ------------------------------------------------------


def run_traced_bursts(seed: int, sizes: DaemonSizes, tracer) -> dict:
    """Drain bursts through an in-process ``ServeDaemon``, spans on and off.

    Traced and untraced bursts alternate so that their ratio is tracing
    overhead and not host drift.  Returns ``{"traced": [(spans, wall,
    result)], "untraced": [(wall, result)], "final": report}``.
    """
    from repro.serve import DaemonConfig, ServeDaemon

    config = DaemonConfig(
        port=0,
        n_neurons=sizes.n_neurons,
        seed=seed,
        prefetcher="ewma",
        session_pool=8,
        queries_per_session=sizes.queries_per_session,
        max_queue=4096,
        report_interval=3600.0,
    )
    write_frame = driver.own_write_frame
    out: dict = {"traced": [], "untraced": []}

    async def drive() -> None:
        daemon = ServeDaemon(config)
        await daemon.start()
        try:
            connections = await driver.connect(HOST, daemon.port, n_connections(), write_frame)
            await driver.fire(connections, driver.burst_schedule(sizes.warmup), write_frame)
            for _ in range(sizes.n_bursts):
                result = await driver.fire(
                    connections, driver.burst_schedule(sizes.burst), write_frame
                )
                out["untraced"].append((result.elapsed, result))
                with tracer.installed():
                    started = time.perf_counter()
                    with tracer.span("serve.daemon.loop"):
                        result = await driver.fire(
                            connections, driver.burst_schedule(sizes.burst), write_frame
                        )
                    wall = time.perf_counter() - started
                spans, _ = tracer.take()
                out["traced"].append((spans, wall, result))
                tracer.repetition += 1
            for connection in connections:
                connection.writer.close()
        finally:
            await daemon.shutdown()
        out["final"] = daemon.final_report()

    asyncio.run(drive())
    return out
