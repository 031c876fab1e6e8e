"""End-to-end shape tests: the paper's headline claims on small data.

These run the full pipeline (datagen -> index -> workload -> simulator)
and assert the *qualitative* results the paper reports, with generous
margins: small fixtures are noisy, but the ordering claims must hold.
"""

import pytest

from repro.baselines import EWMAPrefetcher, NoPrefetcher, StraightLinePrefetcher
from repro.core import ScoutConfig, ScoutOptPrefetcher, ScoutPrefetcher
from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.sim import run_experiment
from repro.workload import generate_sequences, microbenchmark


@pytest.fixture(scope="module")
def bench_tissue():
    return make_neuron_tissue(n_neurons=30, seed=3)


@pytest.fixture(scope="module")
def bench_index(bench_tissue):
    return FlatIndex(bench_tissue, fanout=16)


@pytest.fixture(scope="module")
def bench_sequences(bench_tissue):
    return generate_sequences(
        bench_tissue, 5, seed=3, n_queries=20, volume=80_000.0, window_ratio=1.0
    )


class TestHeadlineClaims:
    def test_scout_beats_position_baselines(self, bench_tissue, bench_index, bench_sequences):
        scout = run_experiment(bench_index, bench_sequences, ScoutPrefetcher(bench_tissue))
        ewma = run_experiment(bench_index, bench_sequences, EWMAPrefetcher(0.3))
        sl = run_experiment(bench_index, bench_sequences, StraightLinePrefetcher())
        assert scout.cache_hit_rate > ewma.cache_hit_rate
        assert scout.cache_hit_rate > sl.cache_hit_rate

    def test_scout_accuracy_in_paper_band(self, bench_tissue, bench_index, bench_sequences):
        scout = run_experiment(bench_index, bench_sequences, ScoutPrefetcher(bench_tissue))
        # Paper: 71%-92% across workloads.
        assert 0.55 <= scout.cache_hit_rate <= 1.0

    def test_scout_speedup_meaningful(self, bench_tissue, bench_index, bench_sequences):
        scout = run_experiment(bench_index, bench_sequences, ScoutPrefetcher(bench_tissue))
        none = run_experiment(bench_index, bench_sequences, NoPrefetcher())
        assert none.speedup == pytest.approx(1.0)
        assert scout.speedup > 2.0

    def test_scout_opt_wins_with_gaps(self, bench_tissue, bench_index):
        seqs = generate_sequences(
            bench_tissue, 5, seed=5, n_queries=20, volume=80_000.0, gap=20.0, window_ratio=1.2
        )
        scout = run_experiment(bench_index, seqs, ScoutPrefetcher(bench_tissue))
        opt = run_experiment(
            bench_index, seqs, ScoutOptPrefetcher(bench_tissue, bench_index)
        )
        assert opt.cache_hit_rate >= scout.cache_hit_rate - 0.02

    def test_longer_window_more_accuracy(self, bench_tissue, bench_index):
        """Fig 13d's trend: accuracy rises with the prefetch window ratio."""
        short = generate_sequences(
            bench_tissue, 4, seed=6, n_queries=15, volume=80_000.0, window_ratio=0.1
        )
        long = generate_sequences(
            bench_tissue, 4, seed=6, n_queries=15, volume=80_000.0, window_ratio=2.5
        )
        r_short = run_experiment(bench_index, short, ScoutPrefetcher(bench_tissue))
        r_long = run_experiment(bench_index, long, ScoutPrefetcher(bench_tissue))
        assert r_long.cache_hit_rate > r_short.cache_hit_rate

    def test_grid_resolution_extremes_stay_functional(
        self, bench_tissue, bench_index, bench_sequences
    ):
        """Fig 13e: the fine-resolution default sits on the accuracy
        plateau.  At laptop scale a query holds only a handful of
        structures, so coarse grids degrade gently rather than
        collapsing (the paper's dense-tissue collapse needs thousands of
        objects per query); both ends must stay within a sane band.
        """
        fine = run_experiment(
            bench_index,
            bench_sequences,
            ScoutPrefetcher(bench_tissue, ScoutConfig(grid_resolution=4096)),
        )
        coarse = run_experiment(
            bench_index,
            bench_sequences,
            ScoutPrefetcher(bench_tissue, ScoutConfig(grid_resolution=8)),
        )
        assert fine.cache_hit_rate > 0.5
        assert abs(fine.cache_hit_rate - coarse.cache_hit_rate) < 0.15

    def test_broad_lower_variance_than_deep(self, bench_tissue, bench_index, bench_sequences):
        """§5.2: broad prefetching trades nothing in mean for variance."""
        broad = run_experiment(
            bench_index,
            bench_sequences,
            ScoutPrefetcher(bench_tissue, ScoutConfig(strategy="broad")),
        )
        deep = run_experiment(
            bench_index,
            bench_sequences,
            ScoutPrefetcher(bench_tissue, ScoutConfig(strategy="deep")),
        )
        # Both deliver; the defensive strategy should not collapse.
        assert broad.cache_hit_rate > 0.4
        assert deep.cache_hit_rate > 0.2


class TestMicrobenchmarkPlumbing:
    def test_all_microbenchmarks_run(self, bench_tissue, bench_index):
        for name in ["adhoc_stat", "vis_gaps_high"]:
            spec = microbenchmark(name)
            seqs = spec.generate(bench_tissue, n_sequences=2, seed=1)
            result = run_experiment(bench_index, seqs, ScoutPrefetcher(bench_tissue))
            assert 0.0 <= result.cache_hit_rate <= 1.0
            assert result.speedup >= 1.0


class TestQuickstart:
    def test_quick_experiment_runs(self):
        from repro.quickstart import quick_experiment

        result = quick_experiment(
            prefetcher="scout", n_neurons=8, n_sequences=2, seed=3
        )
        assert 0.0 <= result.cache_hit_rate <= 1.0

    def test_quick_experiment_rejects_unknown(self):
        from repro.quickstart import quick_experiment

        with pytest.raises(ValueError):
            quick_experiment(prefetcher="telepathy")
