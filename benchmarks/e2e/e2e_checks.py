"""Output checks, run on every invocation of the benchmark.

A number is only worth comparing between two commits if the program
computed the right thing on both, so each run verifies, outside the
timed region:

* every repetition's report equals the first one's (the simulator is
  deterministic; dataclass ``==`` compares every field of every record);
* on ``scout_walk`` that first report is computed by
  :func:`repro.sim.run_experiment` on the same inputs, so the timed loop
  is checked against it;
* the partition laws hold on both fleets -- per-client touches, shard
  requests and tier requests each split their stream exactly;
* on ``daemon_open`` every scheduled request is answered exactly once
  and the daemon's own books agree with the client's;
* a traced repetition computes exactly what an untraced one does, and
  its self times close on the wall clock;
* for the default seed the exact metrics equal ``expected.json``.

Each check appends ``{"name", "ok", "detail"}``; the run is ``correct``
only when all are ok.
"""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["Checks", "DEFAULT_SEED", "EXPECTED_PATH", "RESIDUAL_LIMIT"]

DEFAULT_SEED = 7
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Largest share of the wall clock that may lie outside every root span.
RESIDUAL_LIMIT = 0.10


class Checks:
    """Collects named pass/fail results."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def all_ok(self) -> bool:
        return all(result["ok"] for result in self.results)

    # -- in-process workloads ---------------------------------------------------

    def repetitions_identical(self, n_repetitions: int, n_different: int, reference: str) -> None:
        self.record(
            "repetitions_identical",
            n_different == 0,
            f"{n_different} of {n_repetitions} repetitions differ from {reference}",
        )

    def fleet_partition_laws(self, report, instances: dict) -> None:
        touches = report.cache_hits + report.cache_misses
        by_client = sum(c.shared_hits + c.shared_misses + c.failed_reads for c in report.clients)
        self.record(
            "clients_partition_cache_touches",
            by_client == touches,
            f"clients {by_client} vs cache {touches}",
        )
        wrong = [
            c.client_id
            for c in report.clients
            if c.shared_hits + c.shared_misses + c.failed_reads
            != sum(r.pages_needed for r in c.metrics.records)
        ]
        self.record(
            "client_touches_equal_pages_needed", not wrong, f"{len(wrong)} clients off: {wrong[:5]}"
        )
        if report.shards_active:
            requests, hits = sum(report.shard_requests), sum(report.shard_hits)
            self.record(
                "shards_partition_cache_requests",
                requests == touches and hits == report.cache_hits,
                f"shards {requests} vs cache {touches}",
            )
        for store in instances.get("TieredStore", []):
            ts = store.tier_stats
            resolved = (
                ts.tier_hits
                + ts.victim_hits
                + ts.stream_hits
                + ts.miss_hits
                + ts.backing_pages
                + ts.failed_fills
            )
            self.record(
                "tiers_partition_requests",
                ts.requests == resolved,
                f"requests {ts.requests} vs resolved {resolved}",
            )

    # -- the daemon ---------------------------------------------------------------

    def daemon_accounting(self, outcome) -> None:
        scheduled, ok = outcome.scheduled, outcome.count("ok")
        others = {s: outcome.count(s) for s in ("shed", "error", "unanswered")}
        self.record(
            "every_request_answered_once",
            ok == scheduled and not any(others.values()),
            f"scheduled {scheduled} ok {ok} {others}",
        )
        final = outcome.final or {}
        self.record(
            "daemon_books_match_client",
            final.get("requests_admitted") == ok and final.get("requests_shed") == 0,
            f"admitted {final.get('requests_admitted')} shed {final.get('requests_shed')}"
            f" vs client ok {ok}",
        )
        self.record(
            "daemon_drained_and_exited_0",
            outcome.drained and bool(final.get("drained")) and outcome.exit_code == 0,
            f"ack {outcome.drained} final.drained {final.get('drained')} exit {outcome.exit_code}",
        )

    # -- tracing --------------------------------------------------------------------

    def traced_equals_untraced(self, same: bool) -> None:
        self.record(
            "traced_equals_untraced", same, "a traced repetition's report equals an untraced one's"
        )

    def trace_closes(self, residual_share: float, smoke: bool) -> None:
        # At smoke sizes a repetition lasts milliseconds and the harness's
        # own glue is no longer small next to it: report, do not judge.
        self.record(
            "trace_closes",
            smoke or -1e-6 <= residual_share <= RESIDUAL_LIMIT,
            f"residual share {residual_share:.4f} (limit {RESIDUAL_LIMIT})",
        )

    def counts_repeat(self, n_repetitions: int, unstable: list[str]) -> None:
        self.record(
            "layer_counts_repeat",
            not unstable,
            f"over {n_repetitions} traced repetitions, varying: {unstable[:8]}",
        )

    # -- expected values -------------------------------------------------------------

    def expected_exact(self, workload_name: str, seed: int, smoke: bool, exact: dict) -> None:
        """Default-seed exact metrics are pinned in ``expected.json``."""
        if seed != DEFAULT_SEED or smoke:
            return
        expected = json.loads(EXPECTED_PATH.read_text()).get(workload_name)
        if expected is None:
            return
        wrong = {k: (exact.get(k), v) for k, v in expected.items() if exact.get(k) != v}
        self.record("exact_metrics_as_expected", not wrong, f"(got, expected): {wrong}")
