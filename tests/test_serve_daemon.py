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
  ``QuerySession.step_query`` in the same request order.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serve import (
    DaemonConfig,
    ServeDaemon,
    bursty_arrivals,
    poisson_arrivals,
    run_loadgen,
)
from repro.serve.protocol import read_frame, write_frame
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
