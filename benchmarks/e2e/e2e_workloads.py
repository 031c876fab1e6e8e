"""The three in-process workloads: ``scout_walk``, ``fleet_hot``, ``fleet_thrash``.

Each drives the unmodified package through public functions only.  A
workload is built once per invocation (:meth:`build`, the ``setup_s``
region) and then repeated (:meth:`repetition`, the timed region): a
repetition is a *fixed amount of work*, so every wall-clock metric is a
median over repetitions and does not depend on how many of them the
``--seconds`` budget allowed.

Inputs: the dataset is the benchmark's fixture (``DATASET_SEED``), the
query workload is generated from ``--seed``.  With the default seed 7
the derived seeds below are the ones the legacy ``scout-repro bench``
suites hard-code (sequences 13, fleets 21), so ``scout_walk`` is the
legacy ``fig13a`` cell and history stays comparable.

(``daemon_open``, the fourth workload, lives in :mod:`e2e_daemon`.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.baselines import EWMAPrefetcher
from repro.core import ScoutConfig, ScoutPrefetcher
from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.sim import run_experiment
from repro.sim.engine import QuerySession, SimulationConfig, SimulationEngine
from repro.sim.metrics import aggregate
from repro.sim.serve import ServingSimulator
from repro.storage.faults import FaultPlan
from repro.storage.sharded import ShardSpec
from repro.storage.tiered import StorageSpec
from repro.workload.multiclient import multiclient_sessions
from repro.workload.sequence import generate_sequences

__all__ = ["DATASET_SEED", "IN_PROCESS", "FleetWorkload", "Repetition", "ScoutWalk"]

#: The dataset every in-process workload queries (a fixture, not an input).
DATASET_SEED = 7
FANOUT = 16


@dataclass
class Repetition:
    """What one repetition produced (timing is the harness's business)."""

    report: object  # compared == against the first repetition's
    attempted: int
    failed: int
    #: scout_walk: wall time of each step_query, one list per part (the
    #: parts being what the ``checkpoint`` calls separate).
    step_seconds: list | None = None


class _Workload:
    name = ""
    #: What :meth:`reference` computes, for the identity check's message.
    reference_is = "the first repetition"

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.dataset = None
        self.index = None

    def build(self, seed: int) -> dict[str, float]:
        """Dataset + index + workload generation; per-part seconds."""
        clock = time.perf_counter
        started = clock()
        self.dataset = make_neuron_tissue(n_neurons=8 if self.smoke else 40, seed=DATASET_SEED)
        built_dataset = clock()
        self.index = FlatIndex(self.dataset, fanout=FANOUT)
        built_index = clock()
        self._generate(seed)
        generated = clock()
        return {
            "datagen.build_s": built_dataset - started,
            "index.build_s": built_index - built_dataset,
            "workload.generate_s": generated - built_index,
        }

    def _generate(self, seed: int) -> None:
        raise NotImplementedError

    def repetition(self, checkpoint=None) -> Repetition:
        """One fixed unit of work.  A workload that drives its own loop
        calls ``checkpoint()`` between parts of it, so that the harness
        can take a calibration reading there (and not count it)."""
        raise NotImplementedError

    def reference(self) -> Repetition:
        """The untimed first pass: warms the package up, and its report
        is what every timed repetition's report must equal."""
        return self.repetition()

    def exact(self, report) -> dict[str, float]:
        """The metrics that repeat bit-for-bit for a fixed seed."""
        raise NotImplementedError

    def records(self, report) -> list:
        """Every QueryRecord of a report, for the per-query count metrics."""
        raise NotImplementedError


class ScoutWalk(_Workload):
    """One interactive client, the paper's case.

    Four query volumes x ``n_sequences`` guided sequences x 25 queries.
    The first four sequences of each volume are the legacy ``fig13a``
    cell (``LEGACY_SEQUENCES``; ``generate_sequences`` spawns one child
    rng per sequence, so asking for more appends to them); the other
    eight cut the spread that the choice of walks puts on the timings
    (0.11 of the median over ten seeds with four sequences, 0.03 with
    twelve).
    """

    LEGACY_SEQUENCES = 4

    name = "scout_walk"
    reference_is = "run_experiment on the same inputs"

    def __init__(self, smoke: bool = False) -> None:
        super().__init__(smoke)
        if smoke:
            self.volumes, self.n_sequences, self.n_queries = (10_000.0, 80_000.0), 2, 6
        else:
            self.volumes = (10_000.0, 45_000.0, 80_000.0, 115_000.0)
            self.n_sequences, self.n_queries = 12, 25
        self.cells: list = []

    @property
    def queries_per_repetition(self) -> int:
        return len(self.volumes) * self.n_sequences * self.n_queries

    def _generate(self, seed: int) -> None:
        self.cells = [
            generate_sequences(
                self.dataset,
                n_sequences=self.n_sequences,
                seed=seed + 6,
                n_queries=self.n_queries,
                volume=volume,
            )
            for volume in self.volumes
        ]

    def repetition(self, checkpoint=None) -> Repetition:
        # The loop of run_experiment, unrolled one level so that each
        # step_query can be timed: cold private cache and disk per
        # sequence, one prefetcher per cell (its rng runs on across the
        # cell's sequences, exactly as run_experiment's does).
        clock = time.perf_counter
        engine = SimulationEngine(self.index)
        parts: list[list[float]] = []
        cells = []
        failed = 0
        for sequences in self.cells:
            if cells and checkpoint is not None:
                checkpoint()
            steps: list[float] = []
            parts.append(steps)
            prefetcher = ScoutPrefetcher(self.dataset, ScoutConfig())
            per_sequence = []
            for sequence in sequences:
                session = QuerySession(engine, sequence, prefetcher)
                while not session.done:
                    started = clock()
                    record = session.step_query()
                    steps.append(clock() - started)
                    if record is None:
                        failed += 1
                per_sequence.append(session.metrics)
            cells.append((aggregate(per_sequence), per_sequence))
        return Repetition(cells, self.queries_per_repetition, failed, parts)

    def reference(self) -> Repetition:
        # run_experiment on the same inputs: the timed loop above must
        # reproduce it, cell for cell and record for record.
        cells = []
        for sequences in self.cells:
            result = run_experiment(
                self.index, sequences, ScoutPrefetcher(self.dataset, ScoutConfig())
            )
            cells.append((result.metrics, result.sequences))
        return Repetition(cells, self.queries_per_repetition, 0)

    def legacy_hit_rates(self, report) -> list[float]:
        """Per-volume hit rate of the legacy ``fig13a`` cell inside the run."""
        return [
            aggregate(sequences[: self.LEGACY_SEQUENCES]).cache_hit_rate
            for _, sequences in report
        ]

    def exact(self, report) -> dict[str, float]:
        aggregates = [cell for cell, _ in report]
        cold = sum(a.cold_seconds for a in aggregates)
        response = sum(a.response_seconds for a in aggregates)
        return {
            "hit_rate": sum(a.cache_hit_rate for a in aggregates) / len(aggregates),
            "sim_speedup": cold / response,
            "sim_response_s": response,
        }

    def records(self, report) -> list:
        return [r for _, sequences in report for metrics in sequences for r in metrics.records]


class FleetWorkload(_Workload):
    """``ServingSimulator.run(lockstep=True)`` over an EWMA fleet."""

    def __init__(self, name: str, smoke: bool = False) -> None:
        super().__init__(smoke)
        self.name = name
        self.clients: list = []
        self.simulator = None
        self.fault_seed = 0
        if name == "fleet_hot":
            self.n_clients, self.n_queries = (32, 6) if smoke else (256, 16)
            self.fleet = dict(mode="hotspot", stagger=0, hot_pool=8, volume=30_000.0)
        elif name == "fleet_thrash":
            self.n_clients, self.n_queries = (16, 6) if smoke else (64, 16)
            self.fleet = dict(mode="independent", stagger=1, volume=240_000.0)
        else:
            raise ValueError(f"unknown fleet workload {name!r}")

    @property
    def queries_per_repetition(self) -> int:
        return self.n_clients * self.n_queries

    def config(self) -> SimulationConfig:
        if self.name == "fleet_hot":
            # The engine's own sizing rule: the working set fits.
            return SimulationConfig()
        # Working set >> cache, and the only place where faults, tiers
        # and shards are composed.
        return SimulationConfig(
            cache_capacity_pages=64,
            shards=ShardSpec(n_shards=8, shard_cache_pages=64, rebalance=True),
            storage=StorageSpec(miss_path="combined", tier_pages=32),
            faults=FaultPlan(transient_rate=0.01, corrupt_rate=0.005, seed=self.fault_seed),
        )

    def _generate(self, seed: int) -> None:
        self.fault_seed = seed
        self.clients = multiclient_sessions(
            self.dataset,
            n_clients=self.n_clients,
            seed=seed + 14,
            n_queries=self.n_queries,
            **self.fleet,
        )
        self.simulator = ServingSimulator(self.index, self.config())

    def repetition(self, checkpoint=None) -> Repetition:
        # One run() call: nowhere to pause, and short enough not to need it.
        prefetchers = [EWMAPrefetcher(lam=0.3) for _ in self.clients]
        report = self.simulator.run(self.clients, prefetchers, lockstep=True)
        answered = sum(len(client.metrics.records) for client in report.clients)
        expected = self.queries_per_repetition
        return Repetition(report, expected, expected - answered)

    def exact(self, report) -> dict[str, float]:
        pooled = report.to_aggregate()
        return {
            "hit_rate": pooled.cache_hit_rate,
            "sim_speedup": pooled.speedup,
            "sim_response_s": pooled.response_seconds,
        }

    def records(self, report) -> list:
        return [r for client in report.clients for r in client.metrics.records]


IN_PROCESS = {
    "scout_walk": ScoutWalk,
    "fleet_hot": lambda smoke=False: FleetWorkload("fleet_hot", smoke),
    "fleet_thrash": lambda smoke=False: FleetWorkload("fleet_thrash", smoke),
}
