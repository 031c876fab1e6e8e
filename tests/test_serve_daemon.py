"""End-to-end tests of the serving daemon and the open-loop generator.

Everything runs in-process over real sockets on an ephemeral port
(``port=0``), with ``asyncio.run`` driving one event loop per test --
what CI's serve-smoke job does across processes, pinned here where the
daemon's internal counters are also visible:

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
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.serve import (
    DaemonConfig,
    ServeDaemon,
    bursty_arrivals,
    poisson_arrivals,
    run_loadgen,
)
from repro.serve.protocol import MAX_FRAME_BYTES, encode_frame, read_frame, write_frame
from repro.sim.engine import QuerySession


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

    def test_schedule_argument_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, n_requests=10)
        with pytest.raises(ValueError):
            poisson_arrivals(100.0)  # neither count nor duration
        with pytest.raises(ValueError):
            poisson_arrivals(100.0, n_requests=10, duration=1.0)  # both
        with pytest.raises(ValueError):
            bursty_arrivals(100.0, n_requests=10, burst=0.5)


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
            return report, daemon.requests_shed, daemon.requests_admitted

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
            dict(storage="mmap", miss_path="combined", tier_pages=64),
            dict(shards=4, partition="hilbert"),
        ],
        ids=["mmap-combined-tier64", "hilbert-4-shards"],
    )
    def test_final_report_accounts_for_the_layer(self, tmp_path, layer):
        """What CI's serve-smoke legs boot, with the books read here."""
        if "storage" in layer:
            layer = dict(layer, pagefile=str(tmp_path / "pages.pf"))

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

        report, final = asyncio.run(_with_daemon(daemon_config(**layer), scenario))
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


class TestPlanTapes:
    """Tapes move pure work from compute to read and nothing else."""

    def test_replies_equal_plain_stepping_in_request_order(self):
        # More connections than walks: late joiners replay a tape that
        # another connection recorded, two connections record the same
        # walk at once, and every session renews several times.
        config = daemon_config(session_pool=2, queries_per_session=6)
        bursts = _seeded_bursts(seed=5, n_connections=5, n_bursts=60, max_size=7)
        final = _assert_equals_reference(config, 5, bursts)
        assert final["sessions_completed"] >= 10
        assert 0 < final["plans_replayed"] < final["requests_admitted"]

    def test_replayed_count_is_everything_after_the_first_lifetime(self):
        # Distinct walks: each connection records its own first
        # lifetime (Q requests) and replays from then on.
        connections, per_connection, queries = 3, 13, 5
        config = daemon_config(session_pool=4, queries_per_session=queries)
        bursts = [(c, per_connection) for c in range(connections)]
        final = _assert_equals_reference(config, connections, bursts)
        assert final["plans_replayed"] == connections * (per_connection - queries)

    @pytest.mark.parametrize(
        "overrides", [dict(prefetcher="scout"), dict(fault_rate=0.05)], ids=["scout", "faults"]
    )
    def test_ineligible_configurations_never_replay(self, overrides):
        config = daemon_config(session_pool=2, queries_per_session=6, **overrides)
        bursts = _seeded_bursts(seed=6, n_connections=3, n_bursts=24, max_size=5)
        final = _assert_equals_reference(config, 3, bursts)
        assert final["sessions_completed"] >= 3
        assert final["plans_replayed"] == 0

    def test_dropped_connection_publishes_nothing(self):
        queries = 6

        async def scenario(daemon):
            # One walk: a connection that leaves mid-session ...
            await _drive_bursts(daemon, 1, [(0, queries - 2)])
            # ... leaves no tape, so the next session on the walk
            # records its whole first lifetime before anything replays.
            _, recorded = await _drive_bursts(daemon, 1, [(0, queries)])
            _, replayed = await _drive_bursts(daemon, 1, [(0, 3)])
            return recorded, replayed, daemon.interval_report()

        recorded, replayed, interval = asyncio.run(
            _with_daemon(daemon_config(session_pool=1, queries_per_session=queries), scenario)
        )
        assert recorded["plans_replayed"] == 0
        assert replayed["plans_replayed"] == 3
        assert interval["plans_replayed"] == 3

    def test_recording_session_whose_step_raises_never_publishes(self, monkeypatch):
        queries = 6

        async def scenario(daemon):
            build = daemon._make_prefetcher

            def build_flaky():
                prefetcher = build()
                observe, calls = prefetcher.observe, []

                def observe_failing_third(query):
                    calls.append(query)
                    if len(calls) == 3:
                        raise RuntimeError("observe blew up")
                    return observe(query)

                prefetcher.observe = observe_failing_third
                return prefetcher

            monkeypatch.setattr(daemon, "_make_prefetcher", build_flaky)
            reader, writer = await asyncio.open_connection("127.0.0.1", daemon.port)
            try:
                await write_frame(writer, {"op": "hello"})
                await read_frame(reader)
                monkeypatch.undo()  # renewed sessions get healthy prefetchers

                async def ask(n):
                    out = []
                    for _ in range(n):
                        await write_frame(writer, {"op": "query"})
                        out.append(await read_frame(reader))
                    return out

                # The third step raises; the worker's guard answers it
                # and the session carries on from the same query.
                first = await ask(queries + 1)
                assert [r["ok"] for r in first] == [True, True, False] + [True] * (queries - 2)
                assert "observe blew up" in first[2]["error"]
                assert first[-1]["session_done"]
                # Had the failed lifetime published, this one would replay.
                second = await ask(queries)
                await write_frame(writer, {"op": "stats"})
                after_second = await read_frame(reader)
                # The healthy lifetime did publish: the third replays.
                third = await ask(2)
                assert all(r["ok"] for r in second + third)
                return after_second, daemon.final_report()
            finally:
                writer.close()

        after_second, final = asyncio.run(
            _with_daemon(daemon_config(session_pool=1, queries_per_session=queries), scenario)
        )
        assert after_second["plans_replayed"] == 0
        assert final["plans_replayed"] == 2
        assert final["latency"]["errors"] == 1


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

    def test_pipelined_queries_of_an_aborted_client_are_executed_and_booked(self):
        n_queries = 30

        async def scenario(daemon):
            _, writer = await _connect(daemon.port)
            writer.write(HELLO + QUERY * n_queries)
            writer.transport.abort()  # never reads a byte
            await _until(lambda: daemon.requests_admitted == n_queries)
            await daemon._queue.join()
            final = daemon.final_report()
            assert final["latency"]["count"] + final["latency"]["errors"] == n_queries
            await _until(lambda: not daemon._writers)

            successor = await _connect(daemon.port)
            assert (await _ask(successor, "hello"))["client_id"] == 1
            assert (await _ask(successor, "query"))["ok"]
            successor[1].close()

        _run_silently(daemon_config(), scenario)

    def test_connection_churn_leaks_no_writer_and_no_task(self):
        async def scenario(daemon):
            tasks_before = len(asyncio.all_tasks())
            for cycle in range(200):
                reader, writer = await _connect(daemon.port)
                # Three shapes: bare connect; hello; hello + an unread query.
                writer.write((b"", HELLO, HELLO + QUERY)[cycle % 3])
                if cycle % 2:
                    writer.transport.abort()
                else:
                    writer.close()
                    await writer.wait_closed()
            await _until(
                lambda: not daemon._writers and len(asyncio.all_tasks()) == tasks_before
            )
            await daemon._queue.join()
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

    def test_sigterm_twice_still_answers_every_queued_request(self):
        """Across processes: the real ``serve`` command under two signals."""
        n_queries = 2000
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--neurons", "6",
             "--max-queue", "4096", "--report-interval", "3600"],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, sys.path))},
        )

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


class TestDaemonConfigValidation:
    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            ServeDaemon(daemon_config(max_queue=0))
        with pytest.raises(ValueError):
            ServeDaemon(daemon_config(session_pool=0))

    def test_unknown_prefetcher_rejected(self):
        with pytest.raises(ValueError, match="unknown prefetcher"):
            ServeDaemon(daemon_config(prefetcher="oracle"))

    def test_fault_rate_wraps_the_disk(self):
        daemon = ServeDaemon(daemon_config(fault_rate=0.05))
        assert daemon.sim_config.faults is not None
        assert daemon.final_report()["faults_active"] is True
