"""Workloads: guided sequences and the Figure-10 registry."""

import numpy as np
import pytest

from repro.workload import (
    MICROBENCHMARKS,
    generate_sequence,
    generate_sequences,
    microbenchmark,
    microbenchmark_names,
)
from tests.oracles.geometry import box_contains, frustum_volume


def centers(sequence) -> np.ndarray:
    return np.array([query.center for query in sequence.queries])


class TestGenerateSequence:
    def test_sequence_length(self, tissue, rng):
        seq = generate_sequence(tissue, rng, n_queries=10, volume=40_000.0)
        assert len(seq) == 10

    def test_query_volume(self, tissue, rng):
        seq = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0)
        for query in seq.queries:
            assert query.bounds.volume == pytest.approx(40_000.0, rel=1e-6)

    def test_adjacent_spacing(self, tissue, rng):
        seq = generate_sequence(tissue, rng, n_queries=8, volume=40_000.0, gap=0.0)
        side = 40_000.0 ** (1 / 3)
        gaps = np.linalg.norm(np.diff(centers(seq), axis=0), axis=1)
        # Euclidean spacing equals one side (within the arc-step tolerance).
        assert np.all(gaps >= side * 0.95)
        assert np.all(gaps <= side * 1.2)

    def test_gap_spacing(self, tissue, rng):
        gap = 15.0
        seq = generate_sequence(tissue, rng, n_queries=8, volume=40_000.0, gap=gap)
        side = 40_000.0 ** (1 / 3)
        gaps = np.linalg.norm(np.diff(centers(seq), axis=0), axis=1)
        assert np.all(gaps >= (side + gap) * 0.95)

    def test_queries_follow_the_guiding_path(self, tissue, rng):
        seq = generate_sequence(tissue, rng, n_queries=8, volume=40_000.0)
        for query in seq.queries:
            assert box_contains(query.bounds, query.center)
            # The center lies on the guiding path by construction, hence
            # near some dataset structure.
            distances = np.linalg.norm(tissue.centroids - query.center, axis=1)
            assert distances.min() < 25.0

    def test_queries_nonempty_on_structure(self, tissue, tissue_rtree, rng):
        seq = generate_sequence(tissue, rng, n_queries=8, volume=40_000.0)
        non_empty = sum(
            1 for q in seq.queries if tissue_rtree.query(q.bounds).n_objects > 0
        )
        assert non_empty == len(seq.queries)

    def test_frustum_aspect(self, tissue, rng):
        seq = generate_sequence(tissue, rng, n_queries=4, volume=30_000.0, aspect="frustum")
        for query in seq.queries:
            assert query.frustum is not None
            assert frustum_volume(query.frustum) == pytest.approx(30_000.0, rel=1e-6)
            enclosing = query.frustum.bounding_aabb()
            assert box_contains(query.bounds, [enclosing.lo, enclosing.hi]).all()

    def test_rejects_unknown_aspect(self, tissue, rng):
        with pytest.raises(ValueError):
            generate_sequence(tissue, rng, n_queries=2, volume=100.0, aspect="sphere")

    def test_rejects_a_gap_that_overlaps_consecutive_queries(self, tissue, rng):
        with pytest.raises(ValueError, match="gap too negative"):
            generate_sequence(tissue, rng, n_queries=2, volume=100.0, gap=-1e6)

    def test_rejects_zero_queries(self, tissue, rng):
        with pytest.raises(ValueError):
            generate_sequence(tissue, rng, n_queries=0, volume=100.0)

    def test_rejects_nonpositive_volume(self, tissue, rng):
        with pytest.raises(ValueError):
            generate_sequence(tissue, rng, n_queries=2, volume=0.0)

    def test_2d_queries_span_z(self, roads, rng):
        seq = generate_sequence(roads, rng, n_queries=5, volume=900.0)
        for query in seq.queries:
            assert query.bounds.lo[2] <= 0.0 <= query.bounds.hi[2]
            side = 900.0 ** 0.5
            assert query.bounds.extent[0] == pytest.approx(side)


class TestGenerateSequences:
    def test_reproducible(self, tissue):
        a = generate_sequences(tissue, 3, seed=9, n_queries=5, volume=40_000.0)
        b = generate_sequences(tissue, 3, seed=9, n_queries=5, volume=40_000.0)
        for sa, sb in zip(a, b):
            assert np.allclose(centers(sa), centers(sb))

    def test_sequences_differ_from_each_other(self, tissue):
        seqs = generate_sequences(tissue, 3, seed=9, n_queries=5, volume=40_000.0)
        assert not np.allclose(centers(seqs[0]), centers(seqs[1]))


class TestMicrobenchmarkRegistry:
    def test_figure10_rows_present(self):
        assert len(MICROBENCHMARKS) == 7
        assert microbenchmark_names(with_gaps=True) == ["vis_gaps_high", "vis_gaps_low"]
        assert len(microbenchmark_names(with_gaps=False)) == 5

    def test_parameters_match_figure10(self):
        spec = microbenchmark("model_building")
        assert spec.n_queries == 35
        assert spec.volume == 20_000.0
        assert spec.window_ratio == 2.0
        assert spec.aspect == "cube"

        vis = microbenchmark("vis_high")
        assert vis.n_queries == 65
        assert vis.volume == 30_000.0
        assert vis.aspect == "frustum"

        gaps = microbenchmark("vis_gaps_high")
        assert gaps.gap == 25.0

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            microbenchmark("nope")

    def test_generate_applies_spec(self, tissue):
        spec = microbenchmark("adhoc_stat")
        seqs = spec.generate(tissue, n_sequences=2, seed=3)
        assert len(seqs) == 2
        assert all(len(s) == 25 for s in seqs)
        assert all(s.window_ratio == 0.8 for s in seqs)
