"""Serving cells through the declarative sweep pipeline.

A serving cell is an ordinary :class:`CellSpec` plus a ``serve``
mapping; these tests pin the spec round-trip (including the
key-stability guarantee for pre-existing non-serving cells), the
routing in :func:`run_cell`, and the ``clients_matrix`` grid builder.
"""

from __future__ import annotations

import pytest

from repro.sim import CellSpec, ParallelRunner, ResultStore, ServingSimulator, run_cell
from repro.sim.runner import (
    DatasetSpec,
    IndexSpec,
    PrefetcherSpec,
    WorkloadSpec,
    prepare_serving_cell,
    run_serving_cell,
)
from repro.workload.sweeps import clients_matrix
from tests.oracles.serving import RoundRobinSimulator


def serving_spec(n_clients=2, serve_extra=(), sim=()):
    return CellSpec(
        dataset=DatasetSpec("neuron", {"n_neurons": 6, "seed": 7}),
        index=IndexSpec("flat", {"fanout": 16}),
        workload=WorkloadSpec(n_sequences=n_clients, n_queries=3, volume=30_000.0),
        prefetcher=PrefetcherSpec("ewma", {"lam": 0.3}),
        seed=21,
        sim=dict(sim),
        serve={"n_clients": n_clients, "mode": "independent", "stagger": 1, **dict(serve_extra)},
    )


class TestServeSpec:
    def test_roundtrips_through_dict(self):
        spec = serving_spec()
        assert CellSpec.from_dict(spec.to_dict()) == spec
        assert spec.to_dict()["serve"]["n_clients"] == 2

    def test_non_serving_cells_keep_their_keys(self):
        """No ``serve`` key in legacy specs: stored results stay valid."""
        spec = serving_spec()
        plain = CellSpec(
            dataset=spec.dataset,
            index=spec.index,
            workload=spec.workload,
            prefetcher=spec.prefetcher,
            seed=spec.seed,
        )
        assert "serve" not in plain.to_dict()
        assert plain.key() != spec.key()
        assert CellSpec.from_dict(plain.to_dict()) == plain

    def test_unknown_serve_key_rejected(self):
        with pytest.raises(ValueError, match="unknown serve key"):
            prepare_serving_cell(serving_spec(serve_extra={"warp": 9}))

    def test_missing_n_clients_rejected(self):
        spec = serving_spec()
        broken = CellSpec.from_dict(
            {**spec.to_dict(), "serve": {"mode": "independent"}}
        )
        with pytest.raises(ValueError, match="n_clients"):
            prepare_serving_cell(broken)

    def test_inconsistent_n_sequences_rejected(self):
        """n_sequences must mirror the client count, not silently fork keys."""
        spec = serving_spec()
        skewed = CellSpec.from_dict(
            {**spec.to_dict(), "workload": {**spec.workload.to_dict(), "n_sequences": 5}}
        )
        with pytest.raises(ValueError, match="one session per client"):
            prepare_serving_cell(skewed)

    def test_hot_pool_must_be_positive(self):
        with pytest.raises(ValueError, match="hot_pool"):
            prepare_serving_cell(
                serving_spec(serve_extra={"mode": "hotspot", "hot_pool": 0})
            )


class TestServeCellExecution:
    def test_run_cell_routes_serving_specs(self):
        spec = serving_spec()
        result = run_cell(spec)
        assert result.ok
        assert result.metrics.n_sequences == 2
        assert len(result.metrics.per_sequence_hit_rates) == 2

        # The persisted aggregate equals a direct ServingSimulator run.
        index, clients, prefetchers, config = prepare_serving_cell(spec)
        report = ServingSimulator(index, config).run(clients, prefetchers)
        assert result.metrics == report.to_aggregate()

    def test_run_serving_cell_returns_contention_report(self):
        result, report = run_serving_cell(serving_spec())
        assert result.metrics == report.to_aggregate()
        assert len(report.clients) == 2
        assert report.cache_hits >= 0

    def test_sim_overrides_shrink_the_shared_cache(self):
        small = run_serving_cell(serving_spec(sim={"cache_capacity_pages": 16}))[1]
        assert small.capacity_pages == 16

    def test_pooled_and_serial_serving_cells_agree(self, tmp_path):
        cells = clients_matrix(
            clients=(1, 2), cache_pages=(None,), n_neurons=6, n_queries=3,
        )
        serial = ParallelRunner(jobs=1).run(cells, resume=False)
        store = ResultStore(tmp_path / "serve.jsonl")
        pooled = ParallelRunner(jobs=2, store=store).run(cells, resume=False)
        for a, b in zip(serial.results, pooled.results):
            assert a.key == b.key
            assert a.metrics == b.metrics


class TestLockstepPlumbing:
    def test_sweep_cells_match_the_round_robin_reference(self):
        """Sweeps serve through the one tick; the round-robin oracle must agree
        exactly, on a hot walk through a cache small enough that step order
        decides hits."""
        spec = serving_spec(
            n_clients=4, serve_extra={"mode": "hotspot", "hot_pool": 1},
            sim={"cache_capacity_pages": 8},
        )
        result, report = run_serving_cell(spec)
        index, clients, prefetchers, config = prepare_serving_cell(spec)
        reference = RoundRobinSimulator(index, config).run(clients, prefetchers)
        assert report == reference
        assert result.metrics == reference.to_aggregate()

    def test_serving_metrics_carry_contention_counters(self):
        """The persisted aggregate keeps cross_client_hits/evicted_misses."""
        result, report = run_serving_cell(serving_spec())
        assert result.metrics.cross_client_hits == report.cross_client_hits
        assert result.metrics.evicted_misses == report.evicted_misses


class TestClientsMatrix:
    def test_grid_shape_and_order(self):
        cells = clients_matrix(
            clients=(1, 2), cache_pages=(None, 32), n_neurons=6, n_queries=3
        )
        assert len(cells) == 2 * 2 * 2  # cache x prefetcher x clients
        capacities = [c.sim.get("cache_capacity_pages") for c in cells]
        assert capacities == [None] * 4 + [32] * 4  # cache-size-major, None = auto
        assert [c.to_dict()["serve"]["n_clients"] for c in cells[:2]] == [1, 2]

    def test_cells_are_distinct_and_stable(self):
        cells = clients_matrix(n_neurons=6, n_queries=3)
        keys = [c.key() for c in cells]
        assert len(set(keys)) == len(keys)
        assert keys == [c.key() for c in clients_matrix(n_neurons=6, n_queries=3)]

    def test_workload_mirrors_client_count(self):
        for cell in clients_matrix(clients=(4,), cache_pages=(None,), n_neurons=6):
            assert cell.workload.n_sequences == 4
            assert cell.serve["n_clients"] == 4

    def test_rejects_bad_client_counts(self):
        with pytest.raises(ValueError, match="clients"):
            clients_matrix(clients=())
        with pytest.raises(ValueError, match="clients"):
            clients_matrix(clients=(0,))
