#!/usr/bin/env python3
"""End-to-end benchmark of the SCOUT reproduction: one command per workload.

    python3 benchmarks/e2e/e2e_bench.py --workload NAME --seed N \
        [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
    python3 benchmarks/e2e/e2e_bench.py --selfcheck [--seconds S]

Prints one JSON document with every metric by name and unit, the exact
metrics, the output checks and the machine notes, and then -- as the
last line of standard output -- the one-line result the driver reads::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` (default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates traced and untraced
repetitions and reports the per-layer metrics.  Exit status is non-zero
when any output check failed.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOADS = ("scout_walk", "fleet_hot", "fleet_thrash", "daemon_open")

#: A run is "disturbed" when the calibration kernel's p90/p10 within it
#: exceeds this: the host changed speed while the run was measuring.
DISTURBED_SPREAD = 1.5

#: Calibration readings at smoke sizes only have to exist.
SMOKE_CAL_BUDGET_S = 0.01


def _bootstrap() -> None:
    """Make ``repro`` and the sibling ``e2e_*`` modules importable."""
    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"e2e_bench: no package to measure at {SRC}/repro\n")
        raise SystemExit(2)
    # The package is single-threaded; a BLAS pool spinning up inside a
    # stray numpy call only adds noise on a two-core box.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- shared bookkeeping ---------------------------------------------------------------


class Run:
    """Values measured by one invocation, before they become the document."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        from e2e_checks import Checks

        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.smoke = trace, smoke
        self.end_to_end: dict[str, float] = {}
        self.per_layer: dict[str, float] = {}
        self.exact: dict = {}
        #: Reported metrics that repeat exactly between two runs of the
        #: same code and seed (counts made by the program); ``--selfcheck``
        #: holds them to equality.  None on ``daemon_open`` but the failed
        #: share: which request meets which cache state is wall-clock there.
        self.exact_names: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.cals: list[float] = []
        self.checks = Checks()
        self.notes: dict = {}

    @property
    def cal_budget(self) -> float:
        from e2e_machine import CAL_BUDGET_S

        return SMOKE_CAL_BUDGET_S if self.smoke else CAL_BUDGET_S

    def calibrate(self) -> float:
        from e2e_machine import calibrate

        seconds = calibrate(self.cal_budget)
        self.cals.append(seconds)
        return seconds

    def machine_metrics(self) -> dict[str, float]:
        from e2e_machine import median, percentile

        spread = percentile(self.cals, 0.9) / percentile(self.cals, 0.1)
        return {
            "machine.cal_ms": 1e3 * median(self.cals),
            "machine.cal_spread": spread,
            "run.disturbed": 1.0 if spread > DISTURBED_SPREAD else 0.0,
        }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer values of one traced repetition ----------------------------------------


def _layer_values(summary: dict, instances: dict, records: list, report=None) -> tuple[dict, dict]:
    """``(seconds, counts)`` by metric name for one traced repetition.

    ``seconds`` are wall-clock self times (the caller restates them at
    reference host speed); ``counts`` repeat exactly for a fixed seed.
    ``report`` is the repetition's ``ServeReport``, when it has one.
    """
    names = summary["names"]

    def self_s(*spans: str) -> float:
        return sum(names.get(s, {}).get("self_seconds", 0.0) for s in spans)

    def calls(*spans: str) -> int:
        return sum(names.get(s, {}).get("calls", 0) for s in spans)

    def layer_s(layer: str) -> float:
        return summary["layers"].get(layer, 0.0)

    n_queries = max(1, len(records))
    seconds = {
        "index.query_s": self_s("index.query"),
        "index.query_many_s": self_s("index.query_many"),
        "index.region_probe_s": self_s("index.region_probe"),
        "core.observe_s": self_s("core.observe"),
        "core.plan_s": self_s("core.plan"),
        "graph.build_s": self_s("graph.build"),
        "graph.crossings_s": self_s("graph.crossings"),
        "baselines.observe_s": self_s("baselines.observe"),
        "baselines.plan_s": self_s("baselines.plan"),
        "storage.cache.touch_s": self_s("storage.cache.touch"),
        "storage.cache.lookup_s": self_s("storage.cache.lookup"),
        "storage.cache.insert_s": self_s("storage.cache.insert"),
        "storage.disk.read_s": self_s("storage.disk.read"),
        "storage.faults.self_s": layer_s("storage.faults"),
        "storage.tiered.self_s": layer_s("storage.tiered"),
        "storage.sharded.self_s": layer_s("storage.sharded"),
        "storage.sharded.route_s": self_s("storage.sharded.route"),
        "sim.engine.self_s": layer_s("sim.engine"),
        "sim.serve.self_s": layer_s("sim.serve"),
    }
    caches = instances.get("ArrayCache", []) + instances.get("PrefetchCache", [])
    disks = instances.get("DiskModel", [])
    counts = {
        "index.query_calls": calls("index.query"),
        "index.query_many_calls": calls("index.query_many"),
        "index.region_probe_calls": calls("index.region_probe"),
        "index.pages_per_query": sum(r.pages_needed for r in records) / n_queries,
        "core.observe_calls": calls("core.observe"),
        "core.candidates_per_query": sum(r.n_candidates for r in records) / n_queries,
        "baselines.plan_calls": calls("baselines.plan"),
        "storage.cache.touch_calls": calls("storage.cache.touch"),
        "storage.cache.lookup_calls": calls("storage.cache.lookup"),
        "storage.cache.insert_calls": calls("storage.cache.insert"),
        "storage.cache.hits": sum(c.hits for c in caches),
        "storage.cache.misses": sum(c.misses for c in caches),
        "storage.cache.evictions": sum(c.evictions for c in caches),
        "storage.cache.insertions": sum(c.insertions for c in caches),
        "storage.disk.read_calls": calls("storage.disk.read"),
        "storage.disk.pages_read": sum(d.stats.pages_read for d in disks),
        "storage.disk.sim_seconds": sum(d.stats.seconds_busy for d in disks),
        "storage.faults.retries": sum(d.stats.retries for d in disks),
        "storage.faults.corrupt_detected": sum(d.stats.corrupt_detected for d in disks),
        "sim.engine.step_calls": calls("sim.engine.step"),
        "sim.serve.shared_plan_share": calls("sim.engine.step_replay") / n_queries,
    }
    if report is not None:
        counts["sim.serve.ticks"] = report.n_ticks
        counts["storage.faults.failed_reads"] = report.failed_reads
        counts["storage.faults.breaker_opens"] = report.breaker_opens
    for store in instances.get("TieredStore", []):
        ts = store.tier_stats
        for name, value in [
            ("requests", ts.requests),
            ("tier_hits", ts.tier_hits),
            ("miss_path_hits", ts.mechanism_hits),
            ("backing_pages", ts.backing_pages),
            ("stall_seconds", ts.stall_seconds),
        ]:
            key = f"storage.tiered.{name}"
            counts[key] = counts.get(key, 0) + value
    for cache in instances.get("ShardedCache", []):
        requests = [shard.hits + shard.misses for shard in cache.shards]
        mean = sum(requests) / len(requests)
        counts["storage.sharded.rebalances"] = cache.rebalance_events
        counts["storage.sharded.pages_moved"] = cache.pages_moved
        counts["storage.sharded.hop_seconds"] = cache.hop_seconds
        counts["storage.sharded.imbalance"] = max(requests) / mean if mean else 0.0
    return seconds, counts


def _step_durations(spans: list) -> list[float]:
    return [end - start for name, start, end, _, _ in spans if name == "sim.engine.step"]


def _layer_table_notes(summary: dict) -> dict:
    """One traced repetition's layer shares and span call counts, for the baseline."""
    total = sum(summary["layers"].values())
    return {
        "layer_self_share": {
            name: seconds / total for name, seconds in sorted(summary["layers"].items())
        },
        "span_calls": {name: e["calls"] for name, e in sorted(summary["names"].items())},
    }


# -- the in-process workloads ----------------------------------------------------------


def _timed(run: Run, workload, cal_before: float, tracer=None) -> dict:
    """One repetition between calibration readings, restated part by part.

    A workload that drives its own loop pauses between parts of it
    (``checkpoint``): the harness takes a reading there, does not count
    the pause, and restates each part with the readings on either side
    of it -- the host changes speed within a three-second repetition.
    ``cal_after`` is the next repetition's "before".
    """
    from e2e_machine import median, to_reference

    edges: list[tuple] = []  # (wall, cpu) where a part ends, (wall, cpu) where the next starts
    readings = [cal_before]

    def checkpoint() -> None:
        ended = (time.perf_counter(), time.process_time())
        readings.append(run.calibrate())
        edges.append((ended, (time.perf_counter(), time.process_time())))

    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        gc.collect()
        started = (time.perf_counter(), time.process_time())
        repetition = workload.repetition(checkpoint)
        ended = (time.perf_counter(), time.process_time())
    readings.append(run.calibrate())
    starts = [started] + [resumed for _, resumed in edges]
    ends = [paused for paused, _ in edges] + [ended]
    cals = [(a + b) / 2.0 for a, b in zip(readings, readings[1:])]
    walls = [e[0] - s[0] for s, e in zip(starts, ends)]
    cpus = [e[1] - s[1] for s, e in zip(starts, ends)]
    timed = {
        "repetition": repetition,
        "wall": sum(walls),
        "wall_ref": sum(to_reference(w, c) for w, c in zip(walls, cals)),
        "cpu_ref": sum(to_reference(p, c) for p, c in zip(cpus, cals)),
        "cal": sum(c * w for c, w in zip(cals, walls)) / sum(walls),
        "cal_after": readings[-1],
    }
    if repetition.step_seconds is not None:
        timed["step_raw"] = median(s for part in repetition.step_seconds for s in part)
        timed["step_ref"] = median(
            to_reference(s, c) for part, c in zip(repetition.step_seconds, cals) for s in part
        )
    return timed


def run_in_process(run: Run) -> None:
    from e2e_machine import median, supported_percentile, to_reference
    from e2e_trace import PrefetchUse, Tracer, summarize
    from e2e_workloads import IN_PROCESS

    # -- set-up: several times, so that its median is steady ----------------------
    workload = None
    setups, parts = [], []
    for _ in range(1 if (run.trace or run.smoke) else 3):
        workload = None
        gc.collect()
        workload = IN_PROCESS[run.workload](run.smoke)
        cal_before = run.calibrate()
        started = time.perf_counter()
        built = workload.build(run.seed)
        wall = time.perf_counter() - started
        cal = (cal_before + run.calibrate()) / 2.0
        setups.append(to_reference(wall, cal))
        parts.append({name: to_reference(value, cal) for name, value in built.items()})
    n_queries = workload.queries_per_repetition

    # -- warm-up: lazy set-up inside the package finishes; the reference report ----
    first = workload.reference()
    run.exact = workload.exact(first.report)

    # -- the timed region -----------------------------------------------------------
    tracer = Tracer() if run.trace else None
    untraced, traced, n_different = [], [], 0
    min_repetitions = 2 if run.smoke else 4
    loop_started = time.perf_counter()
    index = 0
    cal_last = run.calibrate()
    while True:
        use_tracer = tracer if (run.trace and index % 2 == 1) else None
        entry = _timed(run, workload, cal_last, use_tracer)
        repetition, cal_last = entry.pop("repetition"), entry["cal_after"]
        run.attempted += repetition.attempted
        run.failed += repetition.failed
        n_different += repetition.report != first.report
        if use_tracer is None:
            untraced.append(entry)
        else:
            spans, instances = tracer.take()
            entry["summary"] = summarize(spans, entry["wall"])
            entry["values"] = _layer_values(
                entry["summary"],
                instances,
                workload.records(repetition.report),
                None if run.workload == "scout_walk" else repetition.report,
            )
            entry["step_spans"] = _step_durations(spans)
            if not traced:
                entry["instances"], entry["report"] = instances, repetition.report
                run.notes["spans"] = spans
            traced.append(entry)
            tracer.repetition += 1
        index += 1
        if time.perf_counter() - loop_started >= run.seconds and index >= min_repetitions:
            break
    peak_rss_mb = _peak_rss_mb()
    run.checks.repetitions_identical(index, n_different, workload.reference_is)
    run.notes["repetitions"] = {"untraced": len(untraced), "traced": len(traced)}

    # -- end-to-end metrics: untraced repetitions only, at reference speed ---------
    wall_ref = [e["wall_ref"] for e in untraced]
    qps = median(n_queries / w for w in wall_ref)
    run.notes["repetition_seconds"] = {
        "at_reference": wall_ref,
        "raw": [e["wall"] for e in untraced],
    }
    if "step_ref" in untraced[0]:
        latency_ms = median(1e3 * e["step_ref"] for e in untraced)
        raw_latency_ms = median(1e3 * e["step_raw"] for e in untraced)
    else:
        # A lockstep tick serves one query of every active client: the
        # tick is what a fleet client waits for its answer.
        ticks = first.report.n_ticks
        latency_ms = median(1e3 * w / ticks for w in wall_ref)
        raw_latency_ms = median(1e3 * e["wall"] / ticks for e in untraced)
    run.end_to_end = {
        "setup_s": median(setups),
        "queries_per_s": qps,
        "latency_p50_ms": latency_ms,
        "cpu_ms_per_query": median(1e3 * e["cpu_ref"] / n_queries for e in untraced),
        "peak_rss_mb": peak_rss_mb,
        "hit_rate": run.exact["hit_rate"],
    }
    raw = {
        "run.raw_queries_per_s": median(n_queries / e["wall"] for e in untraced),
        "run.raw_latency_p50_ms": raw_latency_ms,
        "run.repetitions": float(len(untraced)),
    }

    # -- checks that need a look inside: one traced repetition -----------------------
    if traced:
        traced_probe = traced[0]
    elif run.workload == "scout_walk":
        traced_probe = None  # nothing to look inside for: private caches, no laws
    else:
        tracer = Tracer()
        probe = _timed(run, workload, cal_last, tracer)
        spans, instances = tracer.take()
        traced_probe = {
            "summary": summarize(spans, probe["wall"]),
            "instances": instances,
            "report": probe["repetition"].report,
        }
    if traced_probe is not None:
        run.checks.traced_equals_untraced(traced_probe["report"] == first.report)
        run.checks.trace_closes(traced_probe["summary"]["residual_share"], run.smoke)
        if run.workload != "scout_walk":
            run.checks.fleet_partition_laws(traced_probe["report"], traced_probe["instances"])
    expected_view = dict(run.exact)
    if run.workload == "scout_walk":
        expected_view["legacy_fig13a_hit_rates"] = workload.legacy_hit_rates(first.report)
    run.checks.expected_exact(run.workload, run.seed, run.smoke, expected_view)

    # -- per-layer metrics (traced run only) -------------------------------------------
    if not run.trace:
        run.notes["raw"] = raw
        run.exact_names = ["hit_rate"]
        return
    layer = dict(raw)
    layer.update(parts[-1])
    layer["datagen.objects"] = float(workload.dataset.n_objects)
    layer["index.pages"] = float(workload.index.n_pages)
    seconds_names = traced[0]["values"][0].keys()
    for name in seconds_names:
        layer[name] = median(to_reference(e["values"][0][name], e["cal"]) for e in traced)
    unstable = []
    counts = traced[0]["values"][1]
    for name, value in counts.items():
        layer[name] = float(value)
        if any(e["values"][1].get(name) != value for e in traced[1:]):
            unstable.append(name)
    run.checks.counts_repeat(len(traced), unstable)
    run.exact_names = [
        *counts,
        "datagen.objects",
        "index.pages",
        "storage.cache.used_prefetch_share",
        "sim.speedup",
        "sim.response_s",
        "run.failed_share",
    ]
    pooled_steps = [
        1e3 * to_reference(duration, e["cal"]) for e in traced for duration in e["step_spans"]
    ]
    quantile, tail = supported_percentile(pooled_steps)
    layer["sim.engine.step_p99_ms"] = tail
    layer["sim.engine.step_samples"] = float(len(pooled_steps))
    run.notes["sim.engine.step_p99_ms"] = f"is p{100 * quantile:g} of {len(pooled_steps)} samples"
    pairs = min(len(untraced), len(traced))
    layer["trace.overhead_ratio"] = median(
        traced[i]["wall_ref"] / wall_ref[i] for i in range(pairs)
    )
    layer["trace.residual_share"] = median(e["summary"]["residual_share"] for e in traced)
    accounting = PrefetchUse()
    with accounting.installed():
        workload.repetition()
    layer["storage.cache.used_prefetch_share"] = accounting.share
    layer["sim.speedup"] = run.exact["sim_speedup"]
    layer["sim.response_s"] = run.exact["sim_response_s"]
    layer["run.failed_share"] = run.failed / run.attempted
    run.per_layer = layer
    run.notes.update(_layer_table_notes(traced[0]["summary"]))


# -- the daemon workload ----------------------------------------------------------------


def run_daemon(run: Run) -> None:
    import numpy as np
    from e2e_daemon import (
        GATED_RATE,
        SLO_P99_MS,
        DaemonSizes,
        run_subprocess_phases,
        run_traced_bursts,
    )
    from e2e_machine import median, percentile, supported_percentile, to_reference
    from e2e_trace import Tracer, summarize

    sizes = DaemonSizes.of(run.seconds, run.trace, run.smoke)
    outcome = run_subprocess_phases(str(SRC), run.seed, sizes, run.trace, run.cal_budget)
    run.cals.extend(cal for _, cal in outcome.ready)
    run.cals.extend(cal for rung in outcome.rungs.values() for _, cal in rung)
    run.cals.extend(cal for _, cal in outcome.bursts)
    run.checks.daemon_accounting(outcome)
    ok = outcome.count("ok")
    run.attempted = outcome.scheduled
    run.failed = outcome.scheduled - ok
    final = outcome.final or {}
    cache = final.get("cache", {})
    touches = cache.get("hits", 0) + cache.get("misses", 0)
    run.exact = {"hit_rate": cache.get("hits", 0) / touches if touches else 0.0}

    def rung_windows(rate: int) -> list[dict]:
        windows = []
        for result, cal in outcome.rungs[rate]:
            rtt = result.rtt[~np.isnan(result.rtt)]
            scale = to_reference(1.0, cal)
            windows.append(
                {
                    "rtt_ref": scale * rtt,
                    "server_ref_ms": scale * result.server_ms[~np.isnan(result.server_ms)],
                    "lag_ref": [scale * s for s in result.send_lag],
                    "p50_raw_ms": 1e3 * percentile(rtt, 0.5),
                    "p50_ms": 1e3 * scale * percentile(rtt, 0.5),
                    "mean_ms": 1e3 * scale * float(rtt.mean()),
                    "overrun_s": result.elapsed - sizes.window_s,
                }
            )
        return windows

    if not run.trace:
        gated = rung_windows(GATED_RATE)
        cal_all = median(run.cals)
        measured_ok = ok - outcome.warmup.count("ok")
        run.end_to_end = {
            "setup_s": median(to_reference(seconds, cal) for seconds, cal in outcome.ready),
            "queries_per_s": median(
                result.n / to_reference(result.elapsed, cal) for result, cal in outcome.bursts
            ),
            "latency_p50_ms": median(w["p50_ms"] for w in gated),
            "cpu_ms_per_query": 1e3 * to_reference(outcome.cpu_seconds, cal_all) / measured_ok,
            "peak_rss_mb": outcome.peak_rss_mb,
            "hit_rate": run.exact["hit_rate"],
        }
        run.notes["raw"] = {
            "run.raw_queries_per_s": median(r.n / r.elapsed for r, _ in outcome.bursts),
            "run.raw_latency_p50_ms": median(w["p50_raw_ms"] for w in gated),
            "run.repetitions": float(len(outcome.bursts)),
        }
        run.checks.expected_exact(run.workload, run.seed, run.smoke, run.exact)
        return

    # -- traced run: the whole ladder, then the in-process drain with spans ---------
    layer: dict[str, float] = {}
    slo_rate = 0.0
    lag = []
    for rate in outcome.rungs:
        windows = rung_windows(rate)
        rtt_ms = 1e3 * np.concatenate([w["rtt_ref"] for w in windows])
        layer[f"serve.daemon.rtt_p50_ms.r{rate}"] = median(w["p50_ms"] for w in windows)
        # A window holds too few samples for its own p99 at the low
        # rungs; the rung's pooled samples support it.
        layer[f"serve.daemon.rtt_p99_ms.r{rate}"] = percentile(rtt_ms, 0.99)
        lag.extend(s for w in windows for s in w["lag_ref"])
        keeping_up = (
            max(w["overrun_s"] for w in windows) <= 0.05 * sizes.window_s + 0.05
            and windows[-1]["mean_ms"] <= 2.0 * windows[0]["mean_ms"] + 1.0
        )
        if layer[f"serve.daemon.rtt_p99_ms.r{rate}"] <= SLO_P99_MS and keeping_up:
            slo_rate = max(slo_rate, float(rate))
        if rate == GATED_RATE:
            server_ms = np.concatenate([w["server_ref_ms"] for w in windows])
            layer["serve.daemon.server_p50_ms"] = percentile(server_ms, 0.5)
            layer["serve.daemon.wire_p50_ms"] = (
                percentile(rtt_ms, 0.5) - layer["serve.daemon.server_p50_ms"]
            )
            layer["run.raw_latency_p50_ms"] = median(w["p50_raw_ms"] for w in windows)
    layer["serve.daemon.slo_rate_qps"] = slo_rate
    layer["serve.daemon.send_lag_p99_ms"] = 1e3 * percentile(lag, 0.99)
    layer["serve.daemon.queue_depth_max"] = float(final.get("queue_depth_max", 0))
    layer["serve.daemon.shed"] = float(final.get("requests_shed", 0))

    tracer = Tracer()
    cal_before = run.calibrate()
    drained = run_traced_bursts(run.seed, sizes, tracer)
    cal = (cal_before + run.calibrate()) / 2.0
    scale = to_reference(1.0, cal)
    summaries = [summarize(spans, wall) for spans, wall, _ in drained["traced"]]
    for result in [r for _, _, r in drained["traced"]] + [r for _, r in drained["untraced"]]:
        run.attempted += result.n
        run.failed += result.n - result.count("ok")
    names0 = summaries[0]["names"]

    def per_burst(span: str, field: str) -> float:
        return median(s["names"].get(span, {}).get(field, 0.0) for s in summaries)

    steps = [
        1e3 * scale * duration
        for spans, _, _ in drained["traced"]
        for duration in _step_durations(spans)
    ]
    layer.update(
        {
            "serve.protocol.encode_s": scale * per_burst("serve.protocol.encode", "self_seconds"),
            "serve.protocol.decode_s": scale * per_burst("serve.protocol.decode", "self_seconds"),
            "serve.protocol.frames": float(
                names0.get("serve.protocol.encode", {}).get("calls", 0)
                + names0.get("serve.protocol.decode", {}).get("calls", 0)
            ),
            "serve.daemon.loop_s": scale * per_burst("serve.daemon.loop", "self_seconds"),
            "serve.daemon.step_p50_ms": percentile(steps, 0.5),
            "sim.engine.step_p99_ms": supported_percentile(steps)[1],
            "sim.engine.step_calls": float(names0.get("sim.engine.step", {}).get("calls", 0)),
            "sim.engine.self_s": scale
            * median(s["layers"].get("sim.engine", 0.0) for s in summaries),
            "sim.engine.step_samples": float(len(steps)),
            "trace.overhead_ratio": median(
                traced_wall / untraced_wall
                for (_, traced_wall, _), (untraced_wall, _) in zip(
                    drained["traced"], drained["untraced"]
                )
            ),
            "trace.residual_share": median(s["residual_share"] for s in summaries),
            "run.raw_queries_per_s": median(r.n / wall for wall, r in drained["untraced"]),
            "run.repetitions": float(len(drained["untraced"])),
            "run.failed_share": run.failed / run.attempted,
        }
    )
    run.exact_names = ["run.failed_share"]
    layer["serve.daemon.queue_wait_p50_ms"] = (
        layer["serve.daemon.server_p50_ms"] - layer["serve.daemon.step_p50_ms"]
    )
    reply = outcome.warmup.sample_reply
    layer["serve.protocol.bytes_per_reply"] = float(
        4 + len(json.dumps(reply, separators=(",", ":"), sort_keys=True))
    )
    # The layers under the daemon, per traced burst.  The daemon built its
    # cache and disk before the shims went on, so their counters come
    # from the daemon's own final report (whole run, not one burst).
    per_burst_values = [_layer_values(s, {}, []) for s in summaries]
    for name in per_burst_values[0][0]:
        layer.setdefault(name, scale * median(v[0][name] for v in per_burst_values))
    for name, value in per_burst_values[0][1].items():
        if name.endswith("_calls"):
            layer.setdefault(name, float(value))
    for name in ("hits", "misses", "evictions", "insertions"):
        layer[f"storage.cache.{name}"] = float(drained["final"]["cache"][name])
    run.notes["spans"] = drained["traced"][0][0]
    run.checks.trace_closes(layer["trace.residual_share"], run.smoke)
    run.per_layer = layer
    run.notes.update(_layer_table_notes(summaries[0]))


# -- the document ----------------------------------------------------------------------


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> tuple[dict, list | None]:
    """Measure one workload; the full JSON document and one repetition's spans."""
    import numpy as np

    spec = _spec()
    run = Run(workload, seed, seconds, trace, smoke)
    if workload == "daemon_open":
        run_daemon(run)
    else:
        run_in_process(run)
    section = "per_layer" if trace else "end_to_end"
    values = dict(run.per_layer if trace else run.end_to_end)
    if trace:
        values.update(run.machine_metrics())
    declared = {m["name"]: m["unit"] for m in spec[section]}
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        raise AssertionError(f"measured but not declared in BENCHMARK.json: {undeclared}")
    # A layer the workload never enters reports 0 calls and 0 seconds.
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in declared.items()
    }
    spans = run.notes.pop("spans", None)
    document = {
        "workload": workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "correct": run.checks.all_ok and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "exact": run.exact,
        "exact_metrics": sorted(run.exact_names),
        "checks": run.checks.results,
        "machine": {
            **run.machine_metrics(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "notes": run.notes,
    }
    return document, spans


def _write_out(document: dict, spans, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{document['workload']}.trace{document['trace']}.seed{document['seed']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    if spans:
        with open(out_dir / f"{stem}.spans.jsonl", "w") as handle:
            for name, start, end, parent, request in spans:
                handle.write(json.dumps([name, start, end, parent, request]) + "\n")


# -- self-agreement -----------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; its full document."""
    command = [sys.executable, str(HERE / "e2e_bench.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} failed ({done.returncode}): {done.stderr[-800:]}")
    return json.loads("\n".join(lines[:-1]))


def selfcheck(seed: int, seconds: float) -> int:
    """Two interleaved sets of runs of the same code must agree.

    ``A1 B1 A2 B2 ...`` per workload, so the two sets see the same host
    regimes.  Exact metrics must be identical; a wall-clock metric may
    differ by its bound, judged only when neither run was disturbed.
    """
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    problems = 0
    print(f"{'workload':<13}{'metric':<34}{'A':>14}{'B':>14}{'rel.diff':>10}{'bound':>8}  verdict")
    for workload in WORKLOADS:
        for trace in (0, 1):
            a = _child(workload, seed, seconds, trace)
            b = _child(workload, seed, seconds, trace)
            disturbed = bool(a["machine"]["run.disturbed"] or b["machine"]["run.disturbed"])
            for name in a["metrics"]:
                va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
                diff = abs(va - vb) / max(abs(va), abs(vb)) if va != vb else 0.0
                if name in a["exact_metrics"]:
                    verdict, shown = ("ok" if va == vb else "DISAGREE"), f"{'exact':>8}"
                elif name in bounds:
                    shown = f"{bounds[name]:>8.2f}"
                    if diff <= bounds[name]:
                        verdict = "ok"
                    elif disturbed:
                        verdict = "unresolved (disturbed host)"
                    else:
                        verdict = "DISAGREE"
                else:
                    continue  # a per-layer timing: reported, not judged
                problems += verdict == "DISAGREE"
                row = f"{workload:<13}{name:<34}{va:>14.6g}{vb:>14.6g}{diff:>10.4f}{shown}"
                print(f"{row}  {verdict}")
            for side, document in (("A", a), ("B", b)):
                if not document["correct"]:
                    problems += 1
                    print(f"{workload:<13}run {side} (trace {trace}) failed its output checks")
    print("selfcheck:", "PASS" if not problems else f"FAIL ({problems} disagreements)")
    return 0 if not problems else 1


# -- command line -----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7, help="workload seed (default 7)")
    parser.add_argument(
        "--seconds", type=float, default=None, help="how long to measure (default: run_seconds)"
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="1: traced run, per-layer metrics; 0: end-to-end metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, structure only")
    parser.add_argument("--out", default=None, help="also write the document (and spans) here")
    parser.add_argument("--selfcheck", action="store_true", help="two interleaved sets must agree")
    args = parser.parse_args(argv)
    _bootstrap()
    seconds = args.seconds
    if seconds is None:
        seconds = 0.3 if args.smoke else float(_spec()["run_seconds"])
    if args.selfcheck:
        return selfcheck(args.seed, seconds)
    if args.workload is None:
        parser.error("--workload is required (or --selfcheck)")
    document, spans = run_workload(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    if args.out:
        _write_out(document, spans, Path(args.out))
    print(json.dumps(document, indent=2, sort_keys=True))
    result = {key: document[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
