"""End-to-end tests of the serving daemon and the open-loop generator.

Everything runs in-process over real sockets on an ephemeral port
(``port=0``), with ``asyncio.run`` driving one event loop per test --
what the reach driver's serve legs (``tests/reach/drive.py``) do across
processes, pinned here where the daemon's internal counters are also
visible:

* the seeded load generator issues a *deterministic request count* for
  a given ``(process, rate, requests, seed)``, and the daemon's
  admitted+shed counters partition it exactly;
* admission control sheds (fast ``shed: true`` replies) instead of
  queueing without bound when ``max_queue`` is tiny;
* graceful drain answers every admitted in-flight request before the
  daemon stops, and the final report says so;
* an exhausted session renews in place (same walk, fresh phase
  machine), so a connection can run past ``queries_per_session``;
* plan tapes (DESIGN.md §8) change where a step's pure work comes
  from, never a reply: every reply equals a reference that steps plain
  ``QuerySession.step_query`` in the same request order;
* a hostile or careless peer (garbage frames, aborts, churn, a reader
  that stops reading, repeated signals) costs only itself: one error
  reply at most, nothing left on the loop, and books that still say
  every admitted request was answered.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import cli
from repro.serve import (
    DaemonConfig,
    ServeDaemon,
    bursty_arrivals,
    poisson_arrivals,
    run_loadgen,
)
from repro.serve import daemon as daemon_module
from repro.serve import loadgen
from repro.serve.daemon import STOP_SIGNALS
from repro.serve.latency import summary
from repro.serve.protocol import MAX_FRAME_BYTES, encode_frame, read_frame, write_frame
from repro.index.base import SpatialIndex
from repro.sim.engine import QuerySession, SimulationConfig
from repro.storage.cache import PrefetchCache
from repro.storage.disk import DiskModel
from repro.storage.faults import FaultPlan, FaultyDiskModel
from repro.storage.sharded import ShardedCache, ShardSpec
from repro.storage.tiered import StorageSpec, TieredStore


def daemon_config(**overrides) -> DaemonConfig:
    """A small daemon that boots in well under a second."""
    defaults = dict(
        port=0,
        n_neurons=6,
        seed=21,
        session_pool=4,
        queries_per_session=10,
        max_queue=64,
        report_interval=3600.0,
    )
    defaults.update(overrides)
    return DaemonConfig(**defaults)


def faulty(rate: float) -> SimulationConfig:
    """The layers ``serve --fault-rate rate`` builds at the default seed."""
    return SimulationConfig(faults=FaultPlan(transient_rate=rate, corrupt_rate=rate / 2.0, seed=21))


def _not_json(token: str):
    raise ValueError(f"{token} is not JSON")


async def _with_daemon(config: DaemonConfig, scenario):
    """Boot a daemon, run ``scenario(daemon)``, always shut down."""
    daemon = ServeDaemon(config)
    await daemon.start()
    try:
        return await scenario(daemon)
    finally:
        await daemon.shutdown()


class TestArrivalSchedules:
    def test_poisson_deterministic_and_sorted(self):
        a = poisson_arrivals(200.0, n_requests=50, seed=7)
        b = poisson_arrivals(200.0, n_requests=50, seed=7)
        assert np.array_equal(a, b)
        assert len(a) == 50
        assert np.all(np.diff(a) > 0)
        assert poisson_arrivals(200.0, n_requests=50, seed=8)[0] != a[0]

    def test_poisson_duration_mode_count_is_seeded(self):
        a = poisson_arrivals(500.0, duration=0.5, seed=3)
        b = poisson_arrivals(500.0, duration=0.5, seed=3)
        assert np.array_equal(a, b)
        assert np.all(a <= 0.5)

    def test_bursty_deterministic_and_bounded(self):
        a = bursty_arrivals(100.0, n_requests=80, seed=5, burst=8.0)
        b = bursty_arrivals(100.0, n_requests=80, seed=5, burst=8.0)
        assert np.array_equal(a, b)
        assert len(a) == 80
        assert np.all(np.diff(a) >= 0)

    def test_bursty_is_burstier_than_poisson(self):
        # Same offered rate; the on/off process must show heavier
        # inter-arrival dispersion than the memoryless one.
        smooth = np.diff(poisson_arrivals(100.0, n_requests=400, seed=11))
        bursty = np.diff(bursty_arrivals(100.0, n_requests=400, seed=11, burst=16.0))
        cv = lambda gaps: np.std(gaps) / np.mean(gaps)  # noqa: E731
        assert cv(bursty) > cv(smooth)

    @pytest.mark.parametrize("rate", [100.0, 0.5], ids=["in-a-phase", "at-a-phase-end"])
    def test_bursty_duration_mode_stops_at_the_horizon(self, rate):
        """The horizon falls between two arrivals of a phase, or (at a low
        rate) past the end of a phase with no arrival left in it."""
        for seed in range(8):
            a = bursty_arrivals(rate, duration=1.0, seed=seed)
            assert np.array_equal(a, bursty_arrivals(rate, duration=1.0, seed=seed))
            assert np.all(a <= 1.0) and np.all(np.diff(a) >= 0)

    @pytest.mark.parametrize("arrivals", [poisson_arrivals, bursty_arrivals])
    @pytest.mark.parametrize(
        ("rate", "count", "message"),
        [
            (0.0, {"n_requests": 10}, "arrival rate must be positive"),
            (100.0, {}, "exactly one of"),
            (100.0, {"n_requests": 10, "duration": 1.0}, "exactly one of"),
            (100.0, {"n_requests": 0}, "n_requests must be >= 1"),
            (100.0, {"duration": 0.0}, "duration must be positive"),
        ],
    )
    def test_schedule_argument_validation(self, arrivals, rate, count, message):
        with pytest.raises(ValueError, match=message):
            arrivals(rate, **count)

    def test_burst_factor_below_one_is_refused(self):
        with pytest.raises(ValueError, match="burst factor"):
            bursty_arrivals(100.0, n_requests=10, burst=0.5)


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestLoadgenRefusals:
    @pytest.mark.parametrize(
        ("bad", "message"),
        [({"connections": 0}, "connections must be >= 1"), ({"process": "uniform"}, "unknown")],
    )
    def test_bad_arguments_are_refused_before_connecting(self, bad, message):
        with pytest.raises(ValueError, match=message):
            asyncio.run(run_loadgen("127.0.0.1", _free_port(), requests=1, **bad))

    @pytest.mark.parametrize("reply", [{"ok": False, "error": "no"}, None], ids=["refused", "eof"])
    def test_a_rejected_hello_fails_the_run(self, reply):
        async def main():
            async def answer(reader, writer):
                await read_frame(reader)
                if reply is not None:
                    await write_frame(writer, reply)
                writer.close()

            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            async with server:
                port = server.sockets[0].getsockname()[1]
                await run_loadgen("127.0.0.1", port, connections=2, requests=4)

        with pytest.raises(ConnectionError, match="hello rejected"):
            asyncio.run(main())

    def test_an_error_reply_is_counted_not_fatal(self):
        async def main():
            async def answer(reader, writer):
                while (frame := await read_frame(reader)) is not None:
                    replies = {"hello": {"ok": True, "client_id": 0}, "query": {"ok": False}}
                    await write_frame(writer, replies.get(frame["op"], {"ok": True}))
                writer.close()

            server = await asyncio.start_server(answer, "127.0.0.1", 0)
            async with server:
                port = server.sockets[0].getsockname()[1]
                return await run_loadgen("127.0.0.1", port, connections=1, requests=5)

        report = asyncio.run(main())
        assert (report["ok"], report["errors"], report["latency"]["errors"]) == (0, 5, 5)

    def test_connect_retries_until_the_daemon_listens(self):
        async def main():
            port = _free_port()
            connecting = asyncio.create_task(loadgen._connect_with_retry("127.0.0.1", port))
            await asyncio.sleep(0.2)
            assert not connecting.done()
            server = await asyncio.start_server(lambda reader, writer: None, "127.0.0.1", port)
            async with server:
                _, writer = await asyncio.wait_for(connecting, timeout=30)
                writer.close()

        asyncio.run(main())

    def test_connect_gives_up_at_its_deadline(self, monkeypatch):
        monkeypatch.setattr(loadgen, "CONNECT_TIMEOUT_S", 0.2)
        started = time.perf_counter()
        with pytest.raises(OSError):
            asyncio.run(loadgen._connect_with_retry("127.0.0.1", _free_port()))
        assert time.perf_counter() - started >= 0.2


class TestProtocolOps:
    def test_hello_query_stats_bye(self):
        async def scenario(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            try:
                await write_frame(writer, {"op": "hello"})
                hello = await read_frame(reader)
                assert hello["ok"] and hello["client_id"] == 0
                assert hello["n_queries"] == 10

                await write_frame(writer, {"op": "query"})
                reply = await read_frame(reader)
                assert reply["ok"]
                assert reply["query_index"] == 0
                assert reply["pages_needed"] > 0
                assert reply["latency_ms"] >= 0

                await write_frame(writer, {"op": "stats"})
                stats = await read_frame(reader)
                assert stats["ok"] and stats["requests_admitted"] == 1
                assert stats["latency"]["count"] == 1

                await write_frame(writer, {"op": "bye"})
                bye = await read_frame(reader)
                assert bye["ok"] and bye["bye"]
            finally:
                writer.close()

        asyncio.run(_with_daemon(daemon_config(), scenario))

    def test_reports_before_any_traffic_are_strict_json(self, tmp_path):
        """An empty summary's percentiles are null: a NaN token is not JSON
        (RFC 8259), and jq or ``JSON.parse`` would reject the line."""
        path = tmp_path / "report.json"

        async def scenario():
            daemon = ServeDaemon(daemon_config(report_interval=0.01, report_path=str(path)))
            lines: list[str] = []
            run = asyncio.create_task(daemon.run_async(lines.append))
            await _until(lambda: any('"interval"' in line for line in lines))
            reader, writer = await _connect(daemon.port)
            writer.write(STATS)
            stats = await reader.readexactly(int.from_bytes(await reader.readexactly(4), "big"))
            writer.close()
            await daemon.shutdown()
            await run
            return lines, stats

        lines, stats = asyncio.run(asyncio.wait_for(scenario(), timeout=60))
        idle = next(line for line in lines if '"interval"' in line)
        summaries = [json.loads(idle, parse_constant=_not_json)]
        for text in (lines[-1], path.read_text(), stats.decode()):
            summaries.append(json.loads(text, parse_constant=_not_json)["latency"])
        assert [(s["count"], s["p50_ms"], s["mean_ms"]) for s in summaries] == [(0, None, None)] * 4

    def test_loadgen_prints_and_writes_a_report_with_nothing_served(
        self, tmp_path, monkeypatch, capsys
    ):
        async def all_shed(host, port, **options):
            return {
                "requests": 3,
                "process": "poisson",
                "offered_rate": 200.0,
                "seed": 0,
                "ok": 0,
                "shed": 3,
                "errors": 0,
                "achieved_qps": 0.0,
                "drained": None,
                "latency": summary([], shed=3, errors=0, duration=0.0),
            }

        monkeypatch.setattr("repro.serve.run_loadgen", all_shed)
        out = tmp_path / "latency.json"
        assert cli.main(["loadgen", "--requests", "3", "--out", str(out)]) == 0
        assert "latency: p50 -  p99 -  p999 -  max -" in capsys.readouterr().out
        assert json.loads(out.read_text(), parse_constant=_not_json)["latency"]["max_ms"] is None

    def test_query_before_hello_is_an_error(self):
        async def scenario(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            try:
                await write_frame(writer, {"op": "query"})
                reply = await read_frame(reader)
                assert not reply["ok"]
                assert "hello" in reply["error"]
            finally:
                writer.close()

        asyncio.run(_with_daemon(daemon_config(), scenario))

    def test_unknown_op_is_an_error_not_a_disconnect(self):
        async def scenario(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            try:
                await write_frame(writer, {"op": "frobnicate"})
                reply = await read_frame(reader)
                assert not reply["ok"]
                # The connection survives the bad op.
                await write_frame(writer, {"op": "hello"})
                assert (await read_frame(reader))["ok"]
            finally:
                writer.close()

        asyncio.run(_with_daemon(daemon_config(), scenario))

    def test_session_renews_past_exhaustion(self):
        async def scenario(daemon):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            try:
                await write_frame(writer, {"op": "hello"})
                await read_frame(reader)
                n_queries = daemon.config.queries_per_session
                replies = []
                for _ in range(2 * n_queries + 3):
                    await write_frame(writer, {"op": "query"})
                    replies.append(await read_frame(reader))
                assert all(r["ok"] for r in replies)
                # Query indexes wrap: 0..n-1, 0..n-1, 0, 1, 2.
                indexes = [r["query_index"] for r in replies]
                assert indexes == (list(range(n_queries)) * 2 + [0, 1, 2])
                assert replies[-1]["sessions_completed"] == 2
                assert daemon.sessions_completed == 2
            finally:
                writer.close()

        asyncio.run(_with_daemon(daemon_config(), scenario))

    def test_final_report_keeps_the_summaries_the_interval_lines_carried(self):
        async def scenario(daemon):
            stream = await _connect(daemon.port)
            try:
                await _ask(stream, "hello")
                lines = []
                for n in (3, 2):
                    for _ in range(n):
                        assert (await _ask(stream, "query"))["ok"]
                    lines.append(daemon.interval_report())
                return lines, daemon.final_report(), daemon.intervals
            finally:
                stream[1].close()

        lines, final, kept = asyncio.run(_with_daemon(daemon_config(), scenario))
        own = ("type", "interval", "queue_depth", "queue_depth_max", "connections",
               "plans_replayed")
        carried = [{key: value for key, value in line.items() if key not in own} for line in lines]
        assert final["intervals"] == carried
        # Only the summaries stay: the samples live once, in the total.
        assert kept == carried
        assert [summary["count"] for summary in carried] == [3, 2]
        assert [line["plans_replayed"] for line in lines] == [3, 2]
        assert final["latency"]["count"] == 5


class TestLoadgenEndToEnd:
    def test_deterministic_request_count_and_latency_report(self):
        async def scenario(daemon):
            return await run_loadgen(
                "127.0.0.1",
                daemon.port,
                connections=3,
                process="poisson",
                rate=2000.0,
                requests=120,
                seed=42,
            )

        first = asyncio.run(_with_daemon(daemon_config(), scenario))
        second = asyncio.run(_with_daemon(daemon_config(), scenario))

        for report in (first, second):
            assert report["requests"] == 120
            assert report["ok"] + report["shed"] + report["errors"] == 120
            assert report["errors"] == 0
            assert report["client_ids"] == [0, 1, 2]
        # The seeded schedule fixes the count; wall-clock latencies vary.
        assert first["requests"] == second["requests"]
        latency = first["latency"]
        assert latency["count"] == first["ok"]
        assert latency["p50_ms"] <= latency["p99_ms"] <= latency["p999_ms"]
        assert latency["p999_ms"] <= latency["max_ms"]

    def test_bursty_process_drives_the_same_contract(self):
        async def scenario(daemon):
            return await run_loadgen(
                "127.0.0.1",
                daemon.port,
                connections=2,
                process="bursty",
                rate=500.0,
                requests=60,
                seed=9,
                burst=8.0,
            )

        report = asyncio.run(_with_daemon(daemon_config(), scenario))
        assert report["requests"] == 60
        assert report["ok"] + report["shed"] + report["errors"] == 60
        assert report["process"] == "bursty"
        assert report["burst"] == 8.0

    def test_overload_sheds_instead_of_queueing_without_bound(self):
        async def scenario(daemon):
            report = await run_loadgen(
                "127.0.0.1",
                daemon.port,
                connections=4,
                process="poisson",
                rate=1e6,  # the whole schedule lands at once
                requests=300,
                seed=1,
            )
            return report, daemon.recorder.shed, daemon.requests_admitted

        report, daemon_shed, daemon_admitted = asyncio.run(
            _with_daemon(daemon_config(max_queue=1), scenario)
        )
        assert report["shed"] > 0
        assert report["ok"] >= 1
        # Client-observed and daemon-side accounting partition the offered
        # load exactly.
        assert report["shed"] == daemon_shed
        assert report["ok"] == daemon_admitted
        assert daemon_admitted + daemon_shed == 300

    def test_graceful_drain_answers_in_flight_requests(self):
        async def scenario(daemon):
            # Pipeline a burst, then request shutdown on a second
            # connection while the worker is still draining the queue.
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            await write_frame(writer, {"op": "hello"})
            await read_frame(reader)
            n_inflight = 40
            for _ in range(n_inflight):
                await write_frame(writer, {"op": "query"})

            ctl_reader, ctl_writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port
            )
            await write_frame(ctl_writer, {"op": "shutdown"})
            ack = await read_frame(ctl_reader)
            assert ack["ok"] and ack["draining"]

            replies = []
            for _ in range(n_inflight):
                frame = await read_frame(reader)
                if frame is None:
                    break
                replies.append(frame)
            writer.close()
            ctl_writer.close()
            await asyncio.wait_for(daemon._stopped.wait(), timeout=10)
            return replies, daemon.final_report()

        replies, final = asyncio.run(_with_daemon(daemon_config(), scenario))
        # Every request admitted before the drain got a real answer.
        answered = [r for r in replies if r.get("ok")]
        shed = [r for r in replies if r.get("shed")]
        assert len(answered) == final["requests_admitted"]
        assert len(shed) == final["requests_shed"]
        assert len(answered) >= 1
        assert final["drained"] is True
        assert final["latency"]["count"] == final["requests_admitted"]

    def test_shutdown_via_loadgen_flag(self):
        async def scenario(daemon):
            report = await run_loadgen(
                "127.0.0.1",
                daemon.port,
                connections=2,
                process="poisson",
                rate=2000.0,
                requests=40,
                seed=4,
                shutdown=True,
            )
            await asyncio.wait_for(daemon._stopped.wait(), timeout=10)
            return report, daemon.final_report()

        report, final = asyncio.run(_with_daemon(daemon_config(), scenario))
        assert report["drained"] is True
        assert final["drained"] is True
        assert final["requests_admitted"] == report["ok"] == 40

    @pytest.mark.parametrize(
        "layer",
        [
            dict(storage=StorageSpec(backend="mmap", miss_path="combined", tier_pages=64)),
            dict(shards=ShardSpec(n_shards=4, partition="hilbert")),
        ],
        ids=["mmap-combined-tier64", "hilbert-4-shards"],
    )
    def test_final_report_accounts_for_the_layer(self, tmp_path, layer):
        """What the reach driver's mmap and shards legs boot, with the books read here."""
        if "storage" in layer:
            layer = dict(storage=replace(layer["storage"], path=str(tmp_path / "pages.pf")))

        async def scenario(daemon):
            report = await run_loadgen(
                "127.0.0.1",
                daemon.port,
                connections=4,
                process="poisson",
                rate=2000.0,
                requests=200,
                seed=42,
                shutdown=True,
            )
            await asyncio.wait_for(daemon._stopped.wait(), timeout=10)
            return report, daemon.final_report()

        config = daemon_config(sim=SimulationConfig(**layer))
        report, final = asyncio.run(_with_daemon(config, scenario))
        assert report["requests"] == 200 and report["errors"] == 0
        assert report["drained"] is True
        assert final["type"] == "final" and final["drained"] is True
        assert final["requests_admitted"] == report["ok"]
        assert final["latency"]["count"] == final["requests_admitted"]
        storage, shards, cache = final["storage"], final["shards"], final["cache"]
        if "storage" in layer:
            assert (storage["backend"], storage["miss_path"], storage["tier_pages"]) == (
                "mmap",
                "combined",
                64,
            )
            assert storage["requests"] > 0
            assert storage["requests"] == (
                storage["tier_hits"] + storage["miss_path_hits"] + storage["backing_pages"]
            )
            assert storage["torn_detected"] == 0
        else:
            assert (shards["n_shards"], shards["partition"]) == (4, "hilbert")
            per = shards["per_shard"]
            assert len(per) == 4
            assert cache["hits"] + cache["misses"] > 0
            for counter in ("hits", "misses", "insertions"):
                assert sum(shard[counter] for shard in per) == cache[counter]


async def _drive_bursts(daemon, n_connections, bursts):
    """Pipeline each ``(connection, size)`` burst and collect its replies.

    Connections say hello in order (so connection ``c`` is client
    ``c``); a burst's queries are all written before its first reply is
    read, and one burst finishes before the next starts, which makes
    the worker's FIFO order exactly the order of ``bursts``.  Returns
    the replies in that order, then the ``stats`` reply.
    """
    streams = []
    try:
        for _ in range(n_connections):
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            streams.append((reader, writer))
            await write_frame(writer, {"op": "hello"})
            assert (await read_frame(reader))["ok"]
        replies = []
        for connection, size in bursts:
            reader, writer = streams[connection]
            for _ in range(size):
                await write_frame(writer, {"op": "query"})
            for _ in range(size):
                replies.append(await read_frame(reader))
        reader, writer = streams[0]
        await write_frame(writer, {"op": "stats"})
        return replies, await read_frame(reader)
    finally:
        for _, writer in streams:
            writer.close()


def _reference_run(config, n_connections, bursts):
    """The same requests through plain ``step_query``: replies and plane.

    The serving plane (engine, shared cache, disk, walk pool, prefetcher
    factory) is taken from a daemon that is never started; the stepping
    is the plain per-request path with no tape anywhere near it.
    """
    plane = ServeDaemon(config)
    sessions = [
        QuerySession(
            plane.engine,
            plane.pool[c % len(plane.pool)].sequence,
            plane._make_prefetcher(),
            cache=plane.cache,
            disk=plane.disk,
            client_id=c,
        )
        for c in range(n_connections)
    ]
    completed = [0] * n_connections
    replies = []
    for c, size in bursts:
        for _ in range(size):
            if sessions[c].done:
                sessions[c] = sessions[c].renew(plane._make_prefetcher())
                completed[c] += 1
            record = sessions[c].step_query()
            replies.append(
                {
                    "ok": True,
                    "client_id": c,
                    "query_index": record.index,
                    "pages_needed": record.pages_needed,
                    "pages_hit": record.pages_hit,
                    "prefetch_pages": record.prefetch_pages,
                    "session_done": sessions[c].done,
                    "sessions_completed": completed[c],
                }
            )
    return replies, plane.cache, sum(completed)


def _seeded_bursts(seed, n_connections, n_bursts, max_size):
    rng = np.random.default_rng(seed)
    return [
        (int(rng.integers(n_connections)), int(rng.integers(1, max_size + 1)))
        for _ in range(n_bursts)
    ]


def _assert_equals_reference(config, n_connections, bursts):
    """Drive a daemon and the plain reference; returns the final report."""

    async def scenario(daemon):
        replies, stats = await _drive_bursts(daemon, n_connections, bursts)
        return replies, stats, daemon.final_report()

    replies, stats, final = asyncio.run(_with_daemon(config, scenario))
    expected, cache, sessions_completed = _reference_run(config, n_connections, bursts)
    for reply in replies:
        assert reply.pop("latency_ms") >= 0
    assert replies == expected
    assert final["cache"] == {
        "capacity_pages": cache.capacity_pages,
        "hits": cache.hits,
        "misses": cache.misses,
        "evictions": cache.evictions,
        "insertions": cache.insertions,
    }
    assert final["sessions_completed"] == sessions_completed
    assert final["requests_admitted"] == len(expected)
    assert stats["plans_replayed"] == final["plans_replayed"]
    return final


def _pipelined_drain(config: DaemonConfig, per_connection: int) -> dict:
    """Two connections each write hello and ``per_connection`` queries at
    once; every reply must be ok.  Returns the final report."""

    async def scenario(daemon):
        streams = [await _connect(daemon.port) for _ in range(2)]
        for _, writer in streams:
            writer.write(HELLO + QUERY * per_connection)
        replies = [
            [await read_frame(reader) for _ in range(per_connection + 1)]
            for reader, _ in streams
        ]
        for _, writer in streams:
            writer.close()
        return replies, daemon.final_report()

    replies, final = asyncio.run(_with_daemon(config, scenario))
    assert all(reply["ok"] for replies_of in replies for reply in replies_of)
    assert final["requests_admitted"] == 2 * per_connection
    return final


class TestPlanTapes:
    """Tapes move pure work from compute to read and nothing else."""

    def test_replies_equal_plain_stepping_in_request_order(self):
        # More connections than walks: connections share a walk's tape
        # at different cursors, and every session renews several times.
        config = daemon_config(session_pool=2, queries_per_session=6)
        bursts = _seeded_bursts(seed=5, n_connections=5, n_bursts=60, max_size=7)
        final = _assert_equals_reference(config, 5, bursts)
        assert final["sessions_completed"] >= 10
        assert final["plans_replayed"] == final["requests_admitted"]

    def test_every_request_replays_its_walks_tape(self):
        # Distinct walks: each walk is taped at boot, so every request,
        # first lifetime included, replays.
        connections, per_connection, queries = 3, 13, 5
        config = daemon_config(session_pool=4, queries_per_session=queries)
        bursts = [(c, per_connection) for c in range(connections)]
        final = _assert_equals_reference(config, connections, bursts)
        assert final["plans_replayed"] == final["requests_admitted"]

    def test_an_ineligible_prefetcher_never_replays(self):
        config = daemon_config(session_pool=2, queries_per_session=6, prefetcher="scout")
        bursts = _seeded_bursts(seed=6, n_connections=3, n_bursts=24, max_size=5)
        final = _assert_equals_reference(config, 3, bursts)
        assert final["sessions_completed"] >= 3
        assert final["plans_replayed"] == 0

    @pytest.mark.parametrize("fault_rate", [0.05, 0.9])
    def test_a_faulty_drain_replays_until_breakers_open(self, fault_rate):
        # Faults tape every walk too.  A session replays until its breaker
        # first opens, then steps untaped, its prefetcher observing what it
        # replayed; a renewal replays again.  Twelve queries a session leave
        # room for half-open probes to plan.  Only 0.9 is sure to open a
        # breaker; 0.05 checks that rare faults keep the drain exact.
        config = daemon_config(session_pool=2, queries_per_session=12, sim=faulty(fault_rate))
        bursts = _seeded_bursts(seed=6, n_connections=3, n_bursts=24, max_size=5)
        final = _assert_equals_reference(config, 3, bursts)
        assert final["sessions_completed"] >= 3
        assert final["plans_replayed"] > 0
        if fault_rate > 0.5:
            assert final["plans_replayed"] < final["requests_admitted"]

    def test_mixed_ops_pipelined_on_two_connections_keep_request_order(self):
        k = 8
        config = daemon_config(session_pool=2, queries_per_session=6)
        wire = HELLO + QUERY * k + STATS + QUERY * k + BYE

        async def scenario(daemon):
            streams = [await _connect(daemon.port) for _ in range(2)]
            for _, writer in streams:
                writer.write(wire)
            replies = []
            for reader, writer in streams:
                replies.append([await read_frame(reader) for _ in range(2 * k + 3)])
                assert await read_frame(reader) is None  # bye closed it
                writer.close()
            return replies, daemon.final_report()

        per_connection, final = asyncio.run(_with_daemon(config, scenario))
        # The daemon takes each small write as one chunk and admits a
        # chunk whole, so whichever connection said hello first (client
        # 0) had all of its queries admitted before the other's.
        per_connection.sort(key=lambda replies: replies[0]["client_id"])
        expected, cache, _ = _reference_run(config, 2, [(0, 2 * k), (1, 2 * k)])
        for c, replies in enumerate(per_connection):
            hello, stats, bye = replies[0], replies[k + 1], replies[-1]
            queries = replies[1 : k + 1] + replies[k + 2 : -1]
            assert hello["ok"] and hello["client_id"] == c and "n_queries" in hello
            # Client 0's own first k, or client 0's 2k and then its own k.
            assert stats["requests_admitted"] == (2 * c + 1) * k
            assert bye == {"ok": True, "bye": True}
            for reply in queries:
                assert reply.pop("latency_ms") >= 0
            assert queries == expected[2 * k * c : 2 * k * (c + 1)]
        assert final["requests_admitted"] == 4 * k
        assert (final["cache"]["hits"], final["cache"]["misses"]) == (cache.hits, cache.misses)

    @pytest.mark.parametrize("prefetcher,calls", [("ewma", [8]), ("scout", [])])
    def test_the_pool_is_taped_at_boot_in_one_call(self, monkeypatch, prefetcher, calls):
        taped = []
        plan_tapes = daemon_module.plan_tapes

        def recorded(index, sessions, *lone):
            taped.append(len(sessions))
            return plan_tapes(index, sessions, *lone)

        monkeypatch.setattr(daemon_module, "plan_tapes", recorded)
        ServeDaemon(daemon_config(session_pool=8, prefetcher=prefetcher))
        assert taped == calls

    def test_a_pipelined_drain_replays_every_request(self):
        # Fault-free EWMA walks are taped at boot, so no request of a
        # pipelined drain, renewals included, steps untaped.
        config = daemon_config(session_pool=3, queries_per_session=5, max_queue=256)
        final = _pipelined_drain(config, 60)
        assert final["sessions_completed"] >= 2 * (60 // 5 - 1)
        assert final["plans_replayed"] == final["requests_admitted"]

    def test_a_tape_build_that_raises_fails_the_boot(self, monkeypatch):
        def raising(session):
            raise RuntimeError("tape build blew up")

        monkeypatch.setattr(QuerySession, "plan_tape", raising)
        with pytest.raises(RuntimeError, match="tape build blew up"):
            ServeDaemon(daemon_config())

    @pytest.mark.parametrize("raiser", [0, 1], ids=["first-in-tick", "second-in-tick"])
    def test_a_step_that_raises_fails_its_job_and_the_jobs_behind_it_in_its_tick(
        self, monkeypatch, raiser
    ):
        k = 4
        config = daemon_config(session_pool=2, queries_per_session=6)
        replay, raised = QuerySession.step_query_replay, []
        # Client 0's last query and client 1's first share the one two-job
        # tick (a tick ends at a connection already in it); one of them raises.
        at = {0: k - 1, 1: 0}[raiser]

        def replay_raising_once(session, work):
            if not raised and (session.client_id, session.query_index) == (raiser, at):
                raised.append(session)
                raise RuntimeError("replay blew up")
            return replay(session, work)

        monkeypatch.setattr(QuerySession, "step_query_replay", replay_raising_once)

        async def scenario(daemon):
            # Nothing wakes the idle worker until both writes are admitted,
            # so the ticks do not depend on the loop's timing.
            await _until(lambda: daemon._wakeup is not None)
            wakeup, daemon._wakeup = daemon._wakeup, None
            streams = [await _connect(daemon.port) for _ in range(2)]
            for _, writer in streams:
                writer.write(HELLO + QUERY * k)
            await _until(lambda: len(daemon._jobs) == 2 * k)
            wakeup.set_result(None)
            replies = []
            for reader, writer in streams:
                replies.append([await read_frame(reader) for _ in range(k + 1)])
                writer.close()
            return replies, daemon.final_report()

        per_connection, final = asyncio.run(_with_daemon(config, scenario))
        per_connection.sort(key=lambda replies: replies[0]["client_id"])
        # The raising job fails, and so does the job behind it in the
        # tick; the job ahead of it keeps its real reply.
        failed = {(0, k - 1), (1, 0)} if raiser == 0 else {(1, 0)}
        oks = []
        for c, replies in enumerate(per_connection):
            for i, reply in enumerate(replies[1:]):
                if (c, i) in failed:
                    assert reply == {"ok": False, "error": "RuntimeError: replay blew up"}
                else:
                    assert reply.pop("latency_ms") >= 0
                    oks.append(reply)
        # A failed job's session did not advance: the later ticks serve
        # exactly what plain stepping without the failed requests serves.
        expected, cache, _ = _reference_run(config, 2, [(0, k - (raiser == 0)), (1, k - 1)])
        assert oks == expected
        assert final["latency"]["errors"] == len(failed)
        assert final["latency"]["errors"] + len(oks) == final["requests_admitted"] == 2 * k
        assert (final["cache"]["hits"], final["cache"]["misses"]) == (cache.hits, cache.misses)


class TestOneResultsSource:
    """A daemon fetches each pool walk's index results once, for its lifetime."""

    @pytest.mark.parametrize("overrides", [dict(prefetcher="scout")], ids=["scout"])
    @pytest.mark.parametrize("per_connection", [12, 60])
    def test_an_untaped_pipelined_drain_fetches_each_walk_once(
        self, monkeypatch, overrides, per_connection
    ):
        # Untaped walks, pipelined: every tick holds one job per connection,
        # and each session renews several times.
        fetched = []
        query_many = SpatialIndex.query_many

        def counted(index, regions):
            fetched.append(len(regions))
            return query_many(index, regions)

        monkeypatch.setattr(SpatialIndex, "query_many", counted)
        pool, queries = 3, 5
        final = _pipelined_drain(
            daemon_config(
                session_pool=pool, queries_per_session=queries, max_queue=256, **overrides
            ),
            per_connection,
        )
        assert final["plans_replayed"] == 0
        assert final["sessions_completed"] >= 2 * (per_connection // queries - 1)
        assert fetched == [queries] * pool


def _framed(payload: bytes) -> bytes:
    """``payload`` behind an honest length prefix (``encode_frame`` wants a dict)."""
    return struct.pack(">I", len(payload)) + payload


#: What a broken or hostile peer can put on the wire.  ``json.loads``
#: refuses the last two with a ``RecursionError`` and a plain
#: ``ValueError``, not a ``JSONDecodeError`` (``test_serve_protocol.py``).
HOSTILE_WIRES = {
    "invalid-utf8": _framed(b"\xff\xfe"),
    "json-array": _framed(b"[1, 2, 3]"),
    "oversized-announcement": struct.pack(">I", MAX_FRAME_BYTES + 1),
    "frame-cut-short-by-eof": encode_frame({"op": "hello"})[:-1],
    "two-header-bytes-then-eof": b"\x00\x00",
    "nested-200k-deep": _framed(b"[" * 200_000),
    "5000-digit-integer": _framed(b'{"a":' + b"9" * 5000 + b"}"),
}

HELLO = encode_frame({"op": "hello"})
QUERY = encode_frame({"op": "query"})
STATS = encode_frame({"op": "stats"})
BYE = encode_frame({"op": "bye"})


def _run_silently(config: DaemonConfig, scenario):
    """``_with_daemon`` on a loop whose exception handler must stay silent.

    The handler is where asyncio reports what nobody awaited -- an
    exception escaping a connection callback, a task that died unseen
    -- so an empty list means the peer's misbehaviour stayed the
    peer's problem.  The whole scenario runs under one generous
    timeout: no case asserts a timing, and none may hang the suite.
    """
    complaints: list[dict] = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: complaints.append(context)
        )
        try:
            async with asyncio.timeout(120):
                return await _with_daemon(config, scenario)
        finally:
            gc.collect()  # "exception was never retrieved" speaks at collection

    result = asyncio.run(main())
    assert complaints == [], complaints
    return result


async def _until(predicate) -> None:
    """Let the loop (and so the daemon) run until ``predicate`` holds."""
    while not predicate():
        await asyncio.sleep(0.002)


async def _admission_drained(daemon: ServeDaemon) -> None:
    """Wait until the admission deque is empty: a popped job finishes
    executing before the worker next yields, so every admitted job ran."""
    await _until(lambda: not daemon._jobs)


async def _connect(port: int):
    return await asyncio.open_connection("127.0.0.1", port)


async def _ask(stream, op: str) -> dict:
    reader, writer = stream
    await write_frame(writer, {"op": op})
    return await read_frame(reader)


def _books(daemon: ServeDaemon) -> dict:
    """The final report minus its wall-clock fields."""
    report = daemon.final_report()
    for clock_field in ("duration_seconds", "throughput_qps"):
        del report["latency"][clock_field]
    return report


def _hold_the_drain_for_every_connection(daemon: ServeDaemon) -> None:
    """Make ``Server.wait_closed`` wait for every connection, as it does
    from Python 3.12.1 on, whatever interpreter runs the test."""
    if sys.version_info < (3, 12, 1):

        async def wait_closed():
            await _until(lambda: not daemon._writers)

        daemon._server.wait_closed = wait_closed


class TestHostileWire:
    """ROADMAP item 4(b), first slice: the daemon never dies, hangs or
    miscounts, whatever one peer does."""

    @pytest.mark.parametrize("wire", HOSTILE_WIRES.values(), ids=HOSTILE_WIRES.keys())
    def test_hostile_frame_costs_one_error_reply_and_nothing_else(self, wire):
        async def scenario(daemon):
            bystander = await _connect(daemon.port)
            assert (await _ask(bystander, "hello"))["ok"]
            assert (await _ask(bystander, "query"))["query_index"] == 0
            before = _books(daemon)

            reader, writer = await _connect(daemon.port)
            writer.write(wire)
            writer.write_eof()
            reply = await read_frame(reader)
            assert reply is not None, "the peer was dropped without a reply"
            assert set(reply) == {"ok", "error"}
            assert reply["ok"] is False and reply["error"]
            assert await read_frame(reader) is None  # ... and then EOF
            writer.close()
            await _until(lambda: len(daemon._writers) == 1)
            # As if it had never connected.
            assert _books(daemon) == before

            assert (await _ask(bystander, "query"))["query_index"] == 1
            assert (await _ask(bystander, "bye"))["bye"]
            bystander[1].close()
            await _until(lambda: not daemon._writers)

        _run_silently(daemon_config(), scenario)

    @pytest.mark.parametrize("wire", HOSTILE_WIRES.values(), ids=HOSTILE_WIRES.keys())
    def test_good_frames_ahead_of_a_hostile_one_in_the_same_write_are_answered_first(self, wire):
        async def scenario(daemon):
            reader, writer = await _connect(daemon.port)
            writer.write(HELLO + QUERY + QUERY + wire)
            writer.write_eof()
            hello, q0, q1, error = [await read_frame(reader) for _ in range(4)]
            assert "n_queries" in hello
            assert [q0["query_index"], q1["query_index"]] == [0, 1]
            assert set(error) == {"ok", "error"} and error["ok"] is False
            assert await read_frame(reader) is None  # ... and then EOF
            writer.close()
            await _until(lambda: not daemon._writers)
            return daemon.final_report()

        final = _run_silently(daemon_config(), scenario)
        assert final["requests_admitted"] == final["latency"]["count"] == 2

    def test_stalled_partial_frame_is_dropped(self, monkeypatch):
        """Slow-loris headers (ROADMAP 4(b)): a frame that stops arriving
        half-way costs one error reply and the connection, not a handler
        held open forever; connections idle between frames are left alone."""
        monkeypatch.setattr(daemon_module, "FRAME_STALL_S", 0.2, raising=False)

        async def scenario(daemon):
            bystander = await _connect(daemon.port)
            assert (await _ask(bystander, "hello"))["ok"]
            assert (await _ask(bystander, "query"))["query_index"] == 0
            idle = await _connect(daemon.port)  # connected, silent past the deadline
            before = _books(daemon)

            reader, writer = await _connect(daemon.port)
            writer.write(HELLO[:1])  # one header byte, then nothing
            async with asyncio.timeout(10):
                reply = await read_frame(reader)
                assert set(reply) == {"ok", "error"}
                assert reply["ok"] is False and "stalled" in reply["error"]
                assert await read_frame(reader) is None  # ... and then EOF
            writer.close()
            await _until(lambda: len(daemon._writers) == 2)
            assert _books(daemon) == before

            assert (await _ask(bystander, "query"))["query_index"] == 1
            assert (await _ask(idle, "hello"))["ok"]
            for stream in (bystander, idle):
                assert (await _ask(stream, "bye"))["bye"]
                stream[1].close()
            await _until(lambda: not daemon._writers)

        _run_silently(daemon_config(), scenario)

    def test_trickled_frame_is_dropped(self, monkeypatch):
        """Progress is a completed frame, not a byte: a frame that keeps
        trickling in, each byte well inside the deadline, still runs out."""
        monkeypatch.setattr(daemon_module, "FRAME_STALL_S", 0.2, raising=False)
        frame = _framed(b'{"op": "hello", "pad": "' + b"x" * 200 + b'"}')

        async def scenario(daemon):
            reader, writer = await _connect(daemon.port)

            async def trickle():  # ~4 s for the whole frame
                for byte in frame:
                    writer.write(bytes([byte]))
                    await asyncio.sleep(0.02)

            trickler = asyncio.create_task(trickle())
            try:
                async with asyncio.timeout(10):
                    reply = await read_frame(reader)
                assert not trickler.done(), "the frame completed before any deadline"
                assert reply["ok"] is False and "stalled" in reply["error"]
            finally:
                trickler.cancel()
            writer.close()
            await _until(lambda: not daemon._writers)

        _run_silently(daemon_config(), scenario)

    def test_frames_cut_by_every_write_are_not_a_stall(self, monkeypatch):
        """Every chunk ending mid-frame is a live stream, not a stalled one:
        each completed frame restarts the clock."""
        monkeypatch.setattr(daemon_module, "FRAME_STALL_S", 0.2, raising=False)
        n_queries = 12

        async def scenario(daemon):
            reader, writer = await _connect(daemon.port)
            wire = HELLO + QUERY * n_queries
            # Each write ends two bytes short of a frame boundary, and the
            # whole stream takes longer than the deadline to arrive.
            offsets = [0, *range(len(HELLO) - 2, len(wire), len(QUERY)), len(wire)]
            for start, stop in zip(offsets, offsets[1:]):
                writer.write(wire[start:stop])
                await asyncio.sleep(0.05)
            assert "n_queries" in await read_frame(reader)
            replies = [await read_frame(reader) for _ in range(n_queries)]
            per_session = daemon.config.queries_per_session
            assert [r["query_index"] for r in replies] == [
                i % per_session for i in range(n_queries)
            ]
            writer.close()
            await _until(lambda: not daemon._writers)

        _run_silently(daemon_config(), scenario)

    def test_stats_is_answered_while_a_long_drain_runs(self):
        """The worker yields every ``WORKER_BATCH`` jobs (ROADMAP 4(b))."""
        n_queries = 3000

        async def scenario(daemon):
            reader, writer = await _connect(daemon.port)
            other = await _connect(daemon.port)
            writer.write(HELLO + QUERY * n_queries)
            assert "n_queries" in await read_frame(reader)
            replies = [await read_frame(reader)]  # the drain is under way
            stats = await _ask(other, "stats")
            replies += [await read_frame(reader) for _ in range(n_queries - 1)]
            writer.close()
            other[1].close()
            return stats, replies

        stats, replies = _run_silently(daemon_config(max_queue=4096), scenario)
        # Answered before the last query had even run, let alone replied.
        assert stats["ok"] and stats["latency"]["count"] < n_queries
        per_session = daemon_config().queries_per_session
        assert [r["query_index"] for r in replies] == [i % per_session for i in range(n_queries)]

    def test_pipelined_queries_of_an_aborted_client_are_executed_and_booked(self):
        n_queries = 30

        async def scenario(daemon):
            _, writer = await _connect(daemon.port)
            writer.write(HELLO + QUERY * n_queries)
            writer.transport.abort()  # never reads a byte
            await _until(lambda: daemon.requests_admitted == n_queries)
            await _admission_drained(daemon)
            final = daemon.final_report()
            assert final["latency"]["count"] + final["latency"]["errors"] == n_queries
            await _until(lambda: not daemon._writers)

            successor = await _connect(daemon.port)
            assert (await _ask(successor, "hello"))["client_id"] == 1
            assert (await _ask(successor, "query"))["ok"]
            successor[1].close()

        _run_silently(daemon_config(), scenario)

    def test_connection_churn_leaks_no_writer_and_no_task(self):
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        async def churn(daemon, cycles: int, widths: tuple[int, ...]) -> None:
            """``cycles`` connections in waves of ``widths[i % len(widths)]``
            open at once: each writes one of three shapes (bare connect;
            hello; hello + an unread query), then is aborted or closed."""
            cycle = wave = 0
            while cycle < cycles:
                width = min(widths[wave % len(widths)], cycles - cycle)
                streams = [await _connect(daemon.port) for _ in range(width)]
                for offset, (_, writer) in enumerate(streams):
                    writer.write((b"", HELLO, HELLO + QUERY)[(cycle + offset) % 3])
                for offset, (_, writer) in enumerate(streams):
                    if (cycle + offset) % 2:
                        writer.transport.abort()
                    else:
                        writer.close()
                        await writer.wait_closed()
                cycle += width
                wave += 1

        async def scenario(daemon):
            tasks_before = len(asyncio.all_tasks())
            fds_before = open_fds()
            # One at a time, then 2,000 in waves of up to 300 open at once.
            for cycles, widths in ((200, (1,)), (2000, (1, 300, 3, 64))):
                await churn(daemon, cycles, widths)
                await _until(
                    lambda: not daemon._writers and len(asyncio.all_tasks()) == tasks_before
                )
                await _admission_drained(daemon)
                # Every socket of both ends is closed within a few loop turns.
                for _ in range(200):
                    if open_fds() == fds_before:
                        break
                    await asyncio.sleep(0.01)
                assert open_fds() == fds_before
                final = daemon.final_report()
                assert final["requests_admitted"] == (
                    final["latency"]["count"] + final["latency"]["errors"]
                )

        _run_silently(daemon_config(), scenario)

    def test_slow_reader_does_not_starve_another_connection(self):
        n_queries = 3000

        async def scenario(daemon):
            slow_reader, slow_writer = await _connect(daemon.port)
            slow_writer.write(HELLO + QUERY * n_queries)  # ... and reads nothing

            other = await _connect(daemon.port)
            hello = await _ask(other, "hello")
            reply = await _ask(other, "query")
            assert reply["ok"] and reply["client_id"] == hello["client_id"]
            other[1].close()

            # The slow reader catches up: everything it is owed, in order.
            slow_hello = await read_frame(slow_reader)
            replies = [await read_frame(slow_reader) for _ in range(n_queries)]
            assert all(r["ok"] and r["client_id"] == slow_hello["client_id"] for r in replies)
            per_session = daemon.config.queries_per_session
            assert [r["query_index"] for r in replies] == [
                i % per_session for i in range(n_queries)
            ]
            slow_writer.close()

        _run_silently(daemon_config(max_queue=4096), scenario)

    def test_second_hello_opens_a_fresh_session_behind_the_replies_owed(self):
        async def scenario(daemon):
            reader, writer = await _connect(daemon.port)
            writer.write(HELLO + QUERY + QUERY + HELLO + QUERY)
            first, q0, q1, second, fresh = [await read_frame(reader) for _ in range(5)]
            assert "n_queries" in first and "n_queries" in second  # the two hello replies
            assert (q0["client_id"], q0["query_index"]) == (first["client_id"], 0)
            assert (q1["client_id"], q1["query_index"]) == (first["client_id"], 1)
            assert second["client_id"] != first["client_id"]
            assert (fresh["client_id"], fresh["query_index"]) == (second["client_id"], 0)
            writer.close()

        _run_silently(daemon_config(), scenario)

    def test_concurrent_shutdown_callers_all_return_after_the_drain(self):
        n_queries = 20

        async def scenario(daemon):
            reader, writer = await _connect(daemon.port)
            writer.write(HELLO + QUERY * n_queries)
            await _until(lambda: daemon.requests_admitted == n_queries)

            async def collect():
                replies = [await read_frame(reader) for _ in range(1 + n_queries)]
                writer.close()
                return replies

            replies, *_ = await asyncio.gather(
                collect(), *(daemon.shutdown() for _ in range(3))
            )
            assert all(r["ok"] for r in replies)
            return daemon.final_report()

        final = _run_silently(daemon_config(), scenario)
        assert final["drained"] is True
        assert final["requests_admitted"] == final["latency"]["count"] == n_queries

    def test_idle_peer_does_not_hold_the_drain(self):
        """From Python 3.12.1 ``Server.wait_closed`` waits for every
        connection to close; awaited ahead of the drain it let one idle
        peer block SIGTERM for as long as it stayed connected."""

        async def scenario(daemon):
            reader, writer = idle = await _connect(daemon.port)
            assert (await _ask(idle, "hello"))["ok"]
            if sys.version_info < (3, 12, 1):

                async def wait_closed():  # what the newer loop does
                    await _until(lambda: not daemon._writers)

                daemon._server.wait_closed = wait_closed
            stopping = asyncio.ensure_future(daemon.shutdown())
            done, _ = await asyncio.wait({stopping}, timeout=2)
            if done:
                assert await read_frame(reader) is None  # the daemon hung up
            writer.close()  # releases a drain that was waiting for us
            await stopping
            assert done, "shutdown() waited for an idle peer to leave"

        _run_silently(daemon_config(), scenario)

    def test_peer_that_never_reads_does_not_hold_the_drain(self, monkeypatch):
        """A closed transport first flushes what it is owed, so a peer that
        never reads held its connection -- and from Python 3.12.1 the
        drain's ``wait_closed`` -- forever; past ``CLOSE_GRACE_S`` the
        daemon now aborts it."""
        monkeypatch.setattr(daemon_module, "CLOSE_GRACE_S", 0.2, raising=False)
        n_queries = 20_000

        async def scenario(daemon):
            _hold_the_drain_for_every_connection(daemon)
            sock = socket.socket()
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", daemon.port))
            _, writer = await asyncio.open_connection(sock=sock)
            writer.write(HELLO + QUERY * n_queries)  # ... and reads nothing
            # Owed more than its transport will buffer before it stops
            # reading the peer: nothing the daemon can do will flush it.
            await _until(
                lambda: any(
                    w.transport.get_write_buffer_size() > w.transport.get_write_buffer_limits()[1]
                    for w in daemon._writers
                )
            )
            stopping = asyncio.ensure_future(daemon.shutdown())
            done, _ = await asyncio.wait({stopping}, timeout=10)
            writer.transport.abort()  # releases a drain that was waiting for us
            await stopping
            assert done, "shutdown() waited for a peer that never reads"
            assert not daemon._writers

        _run_silently(daemon_config(max_queue=n_queries), scenario)

    def test_queries_arriving_during_the_drain_are_booked_as_shed(self):
        """DESIGN.md §8's partition holds through the drain: a query the
        draining daemon refuses is shed on both sides of the wire."""
        n_queries, n_late = 2000, 50

        async def scenario(daemon):
            reader, writer = await _connect(daemon.port)
            writer.write(HELLO + QUERY * n_queries)
            await _until(lambda: daemon.requests_admitted == n_queries)
            # The drain starts before the daemon can read the late queries,
            # and its worker yields every WORKER_BATCH jobs, so they arrive
            # while the admitted ones are still being answered.
            stopping = asyncio.ensure_future(daemon.shutdown())
            writer.write(QUERY * n_late)
            replies = [await read_frame(reader) for _ in range(1 + n_queries + n_late)]
            assert await read_frame(reader) is None
            writer.close()
            await stopping
            return replies[1:], _books(daemon)

        replies, books = _run_silently(daemon_config(max_queue=n_queries), scenario)
        ok = sum(1 for r in replies if r["ok"])
        shed = sum(1 for r in replies if r.get("shed"))
        assert (ok, shed) == (n_queries, n_late)
        assert books["requests_admitted"] == books["latency"]["count"] == ok
        assert books["requests_shed"] == books["latency"]["shed"] == shed

    def test_shed_storm_across_session_renewals_keeps_the_books(self):
        """ROADMAP 4(b): bursts past the queue bound on every connection,
        through many session renewals.  A shed neither advances a cursor
        nor renews a session, and both sides count every request once."""
        n_connections, n_bursts, burst = 4, 30, 7
        per_session = 3

        async def client(port):
            stream = await _connect(port)
            hello = await _ask(stream, "hello")
            reader, writer = stream
            replies = []
            for _ in range(n_bursts):
                writer.write(QUERY * burst)
                replies += [await read_frame(reader) for _ in range(burst)]
            writer.close()
            return hello["client_id"], replies

        async def scenario(daemon):
            runs = await asyncio.gather(*(client(daemon.port) for _ in range(n_connections)))
            await _admission_drained(daemon)
            return runs, _books(daemon)

        runs, books = _run_silently(
            daemon_config(max_queue=4, queries_per_session=per_session), scenario
        )
        every = [reply for _, replies in runs for reply in replies]
        ok = sum(1 for r in every if r["ok"])
        shed = sum(1 for r in every if r.get("shed"))
        errors = sum(1 for r in every if not r["ok"] and not r.get("shed"))
        assert ok + shed + errors == n_connections * n_bursts * burst
        assert shed > 0 and errors == 0
        assert books["requests_admitted"] == books["latency"]["count"] == ok
        assert books["requests_shed"] == books["latency"]["shed"] == shed
        for client_id, replies in runs:
            served = [r for r in replies if r["ok"]]
            assert all(r["client_id"] == client_id for r in served)
            assert [r["query_index"] for r in served] == [
                k % per_session for k in range(len(served))
            ]
            assert [r["sessions_completed"] for r in served] == [
                k // per_session for k in range(len(served))
            ]

    def test_sigterm_twice_still_answers_every_queued_request(self):
        """Across processes: the real ``serve`` command under two signals."""
        n_queries = 2000
        process = _serve_process()

        async def client(port):
            reader, writer = await _connect(port)
            writer.write(HELLO + QUERY * n_queries)
            # The hello reply leaves the daemon as its worker starts on
            # the queue, so both signals land while requests are queued.
            replies = [await read_frame(reader)]
            process.send_signal(signal.SIGTERM)
            time.sleep(0.01)
            process.send_signal(signal.SIGTERM)
            replies += [await read_frame(reader) for _ in range(n_queries)]
            writer.close()
            return replies

        try:
            ready = json.loads(process.stdout.readline())
            replies = asyncio.run(asyncio.wait_for(client(ready["port"]), timeout=120))
            stdout, _ = process.communicate(timeout=60)
        finally:
            process.kill()
            process.wait()
        assert all(r is not None and r["ok"] for r in replies)
        final = json.loads(stdout.splitlines()[-1])
        assert final["type"] == "final" and final["drained"] is True
        assert final["requests_admitted"] == n_queries
        assert process.returncode == 0

    def test_sigterm_on_ready_drains_and_exits_zero(self):
        """A supervisor may signal the moment it reads ``ready``."""
        process = _serve_process()
        try:
            assert json.loads(process.stdout.readline())["type"] == "ready"
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            process.kill()
            process.wait()
        assert process.returncode == 0, stderr
        final = json.loads(stdout.splitlines()[-1])
        assert final["type"] == "final" and final["drained"] is True

    def test_sigterms_after_the_final_report_leave_a_clean_exit(self):
        """Signals that keep coming while the process winds down are ignored."""
        process = _serve_process()
        try:
            assert json.loads(process.stdout.readline())["type"] == "ready"
            process.send_signal(signal.SIGTERM)
            assert json.loads(process.stdout.readline())["type"] == "final"
            while process.poll() is None:
                process.send_signal(signal.SIGTERM)
                time.sleep(0.0005)
            stderr = process.stderr.read()
        finally:
            process.kill()
            process.wait()
        assert process.returncode == 0
        assert stderr == ""

    def test_run_async_off_the_main_thread_borrows_no_signal(self):
        found = {signum: signal.getsignal(signum) for signum in STOP_SIGNALS}
        reports = []

        def serve():
            daemon = ServeDaemon(daemon_config())

            def announce(line):
                if json.loads(line)["type"] == "ready":
                    asyncio.ensure_future(daemon.shutdown())

            reports.append(asyncio.run(daemon.run_async(announce)))

        worker = threading.Thread(target=serve)
        worker.start()
        worker.join(timeout=60)
        assert [report["drained"] for report in reports] == [True]
        assert {signum: signal.getsignal(signum) for signum in STOP_SIGNALS} == found

    def test_a_connection_open_at_loop_teardown_ends_quietly(self):
        """``asyncio.run`` cancels the handler of a connection still open
        when its loop closes; the handler must end without a complaint."""
        complaints: list[dict] = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: complaints.append(context)
            )
            daemon = ServeDaemon(daemon_config())
            await daemon.start()
            stream = await _connect(daemon.port)
            assert (await _ask(stream, "hello"))["ok"]

        asyncio.run(main())
        gc.collect()
        assert complaints == []

    def test_a_stop_signal_held_during_boot_is_raised_again_on_ready(self, monkeypatch, capsys):
        """``serve`` holds a stop signal that lands before the daemon has
        borrowed the handlers, then raises it again for the daemon."""
        run_async = ServeDaemon.run_async

        async def signalled_while_booting(daemon, announce):
            os.kill(os.getpid(), signal.SIGTERM)
            return await run_async(daemon, announce)

        monkeypatch.setattr(ServeDaemon, "run_async", signalled_while_booting)
        found = {signum: signal.getsignal(signum) for signum in STOP_SIGNALS}
        try:
            assert cli.main(["serve", "--port", "0", "--neurons", "6", "--pool", "2"]) == 0
        finally:
            for signum, handler in found.items():
                signal.signal(signum, handler)
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [line["type"] for line in lines] == ["ready", "final"]
        assert lines[-1]["drained"] is True

    def test_run_async_hands_the_callers_signal_handlers_back(self):
        """In-process, the daemon borrows SIGINT/SIGTERM and returns them."""

        def callers_handler(signum, frame):
            raise AssertionError("a signal meant for the daemon reached the caller")

        saved = signal.signal(signal.SIGTERM, callers_handler)
        try:
            found = {signum: signal.getsignal(signum) for signum in STOP_SIGNALS}
            found_mask = signal.pthread_sigmask(signal.SIG_BLOCK, [])
            lines = []

            def announce(line):
                lines.append(json.loads(line))
                if lines[-1]["type"] == "ready":
                    os.kill(os.getpid(), signal.SIGTERM)

            daemon = ServeDaemon(daemon_config())
            report = asyncio.run(asyncio.wait_for(daemon.run_async(announce), timeout=60))
            assert {signum: signal.getsignal(signum) for signum in STOP_SIGNALS} == found
            assert signal.pthread_sigmask(signal.SIG_BLOCK, []) == found_mask
        finally:
            signal.signal(signal.SIGTERM, saved)
        assert [line["type"] for line in lines] == ["ready", "final"]
        assert report["drained"] is True


def _serve_process() -> subprocess.Popen:
    """The real ``serve`` command, small, with both output streams piped."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--neurons", "6",
         "--max-queue", "4096", "--report-interval", "3600"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
    )


#: ``serve`` flag -> (a value it refuses on its own, the error after the flag):
#: out of bounds, or a layer flag whose layer the command line left off.
SERVE_REFUSES = {
    "--queries-per-session": ("0", "must be"),
    "--neurons": ("0", "must be"),
    "--report-interval": ("0", "must be"),
    "--cache-pages": ("-5", "must be"),
    "--shards": ("0", "must be"),
    "--port": ("70000", "must be"),
    "--pagefile": ("pages.pf", "applies to --storage mmap only"),
    "--partition": ("hash", "applies to --shards >= 2 only"),
}


class TestDaemonConfigValidation:
    def test_port_is_unknown_before_start(self):
        with pytest.raises(RuntimeError, match="not started"):
            ServeDaemon(daemon_config()).port

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ServeDaemon(daemon_config(max_queue=0))
        with pytest.raises(ValueError):
            ServeDaemon(daemon_config(session_pool=0))
        # A zero or negative interval would spin the reporter on sleep(0).
        with pytest.raises(ValueError, match="report_interval"):
            ServeDaemon(daemon_config(report_interval=0.0))
        with pytest.raises(ValueError, match="report_interval"):
            ServeDaemon(daemon_config(report_interval=-1.0))

    @pytest.mark.parametrize("flag", SERVE_REFUSES)
    def test_serve_command_rejects_bad_bounds(self, capsys, monkeypatch, flag):
        def booted(config):
            raise AssertionError(f"serve booted a daemon despite {flag}")

        monkeypatch.setattr("repro.serve.ServeDaemon", booted)
        value, error = SERVE_REFUSES[flag]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--port", "0", flag, value])
        assert excinfo.value.code == 2
        assert f"error: {flag} {error}" in capsys.readouterr().err

    def test_unknown_prefetcher_rejected(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            ServeDaemon(daemon_config(prefetcher="oracle"))

    @pytest.mark.parametrize(
        "sim, cache, disk",
        [
            (SimulationConfig(), PrefetchCache, DiskModel),
            (SimulationConfig(storage=StorageSpec(), shards=ShardSpec()), PrefetchCache, DiskModel),
            (faulty(0.05), PrefetchCache, FaultyDiskModel),
            (SimulationConfig(storage=StorageSpec(tier_pages=8)), PrefetchCache, TieredStore),
            (SimulationConfig(shards=ShardSpec(n_shards=2)), ShardedCache, DiskModel),
        ],
        ids=["no-spec", "inert-specs", "faults", "tier", "shards"],
    )
    def test_the_config_builds_the_layers(self, sim, cache, disk):
        daemon = ServeDaemon(daemon_config(sim=sim))
        assert (type(daemon.cache), type(daemon.disk)) == (cache, disk)
        assert daemon.final_report()["faults_active"] is (sim.faults is not None)

    @pytest.mark.parametrize(
        "flags, sim",
        [
            ([], SimulationConfig(storage=StorageSpec(), shards=ShardSpec())),
            (
                ["--fault-rate", "0.05", "--seed", "3", "--cache-pages", "300"],
                SimulationConfig(
                    cache_capacity_pages=300,
                    faults=FaultPlan(transient_rate=0.05, corrupt_rate=0.025, seed=3),
                    storage=StorageSpec(),
                    shards=ShardSpec(),
                ),
            ),
            (
                ["--storage", "mmap", "--miss-path", "combined", "--tier-pages", "64"]
                + ["--pagefile", "pages.pf", "--shards", "4", "--partition", "hash"],
                SimulationConfig(
                    storage=StorageSpec("mmap", "combined", 64, path="pages.pf"),
                    shards=ShardSpec(n_shards=4, partition="hash"),
                ),
            ),
        ],
        ids=["defaults", "faults", "storage-and-shards"],
    )
    def test_serve_flags_build_the_daemons_config(self, monkeypatch, flags, sim):
        """A plan only for a positive fault rate; a storage and a shard spec always."""
        booted = []

        def boot(config):
            booted.append(config)
            raise SystemExit(0)

        monkeypatch.setattr("repro.serve.ServeDaemon", boot)
        with pytest.raises(SystemExit):
            cli.main(["serve", "--port", "0", *flags])
        assert [config.sim for config in booted] == [sim]
