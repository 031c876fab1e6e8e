"""Graph builders: grid hashing vs brute force, explicit adjacency, cost."""

import numpy as np
import pytest

from repro.geometry import AABB
from repro.graph import build_graph, build_graph_explicit, build_graph_grid_hash
from tests.oracles.graph import build_graph_brute_force, edges_of


@pytest.fixture(scope="module")
def query(tissue_rtree, tissue):
    region = AABB.cube(tissue.bounds.center, 60_000.0)
    result = tissue_rtree.query(region)
    if result.n_objects < 10:
        region = AABB.cube(tissue.centroids[0], 60_000.0)
        result = tissue_rtree.query(region)
    return region, result


class TestGridHash:
    def test_vertices_are_result_objects(self, tissue, query):
        region, result = query
        report = build_graph_grid_hash(tissue, result.object_ids, region)
        assert sorted(report.graph.vertices()) == sorted(result.object_ids.tolist())

    def test_consecutive_fiber_segments_connected(self, tissue, query):
        """Adjacent segments of one branch share an endpoint and must link."""
        region, result = query
        report = build_graph_grid_hash(tissue, result.object_ids, region)
        ids = result.object_ids
        same_branch = [
            (int(a), int(b))
            for a, b in zip(ids[:-1], ids[1:])
            if b == a + 1 and tissue.branch_id[a] == tissue.branch_id[b]
        ]
        edges = edges_of(report.graph)
        connected = sum((a, b) in edges for a, b in same_branch)
        assert same_branch and connected >= 0.9 * len(same_branch)

    def test_finer_resolution_fewer_or_equal_edges(self, tissue, query):
        region, result = query
        coarse = build_graph_grid_hash(tissue, result.object_ids, region, resolution=64)
        fine = build_graph_grid_hash(tissue, result.object_ids, region, resolution=8192)
        assert fine.graph.n_edges <= coarse.graph.n_edges

    def test_edges_subset_of_brute_force_at_cell_scale(self, tissue, query):
        """Grid-hash edges connect objects within ~one cell diagonal."""
        region, result = query
        resolution = 4096
        report = build_graph_grid_hash(tissue, result.object_ids, region, resolution)
        cell_diagonal = float(np.linalg.norm(region.extent)) / (resolution ** (1 / 3))
        reference = build_graph_brute_force(tissue, result.object_ids, cell_diagonal * 1.5)
        reference_edges = edges_of(reference.graph)
        for u, v in sorted(edges_of(report.graph)):
            assert (u, v) in reference_edges, (u, v)

    def test_empty_result(self, tissue):
        region = AABB([0, 0, 0], [1, 1, 1])
        report = build_graph_grid_hash(tissue, np.empty(0, dtype=np.int64), region)
        assert report.graph.n_vertices == 0 and report.graph.n_edges == 0

    def test_work_units_positive(self, tissue, query):
        region, result = query
        report = build_graph_grid_hash(tissue, result.object_ids, region)
        assert report.work_units > 0
        assert report.wall_seconds >= 0.0


class TestBruteForce:
    def test_threshold_zero_only_touching(self, tissue, query):
        region, result = query
        ids = result.object_ids[:40]
        report = build_graph_brute_force(tissue, ids, distance_threshold=1e-9)
        for u, v in sorted(edges_of(report.graph)):
            # Touching segments share an endpoint (consecutive on a branch).
            shared = (
                np.allclose(tissue.p1[u], tissue.p0[v])
                or np.allclose(tissue.p1[v], tissue.p0[u])
                or np.allclose(tissue.p0[u], tissue.p0[v])
                or np.allclose(tissue.p1[u], tissue.p1[v])
            )
            assert shared

    def test_larger_threshold_more_edges(self, tissue, query):
        region, result = query
        ids = result.object_ids[:40]
        small = build_graph_brute_force(tissue, ids, 0.1)
        large = build_graph_brute_force(tissue, ids, 50.0)
        assert large.graph.n_edges >= small.graph.n_edges


class TestExplicit:
    def test_uses_mesh_adjacency(self, lung):
        ids = np.arange(min(500, lung.n_objects))
        report = build_graph_explicit(lung, ids)
        assert report.graph.n_edges > 0
        edge_set = {tuple(sorted(e)) for e in map(tuple, lung.explicit_edges)}
        for u, v in sorted(edges_of(report.graph)):
            assert (min(u, v), max(u, v)) in edge_set

    def test_restricted_to_result(self, lung):
        ids = np.arange(100)
        report = build_graph_explicit(lung, ids)
        for u, v in sorted(edges_of(report.graph)):
            assert u < 100 and v < 100

    def test_rejects_dataset_without_adjacency(self, tissue):
        with pytest.raises(ValueError):
            build_graph_explicit(tissue, np.arange(10))


class TestDispatch:
    def test_mesh_goes_explicit(self, lung):
        region = lung.bounds
        report = build_graph(lung, np.arange(200), region)
        assert report.resolution == 0  # explicit path

    def test_segments_go_grid_hash(self, tissue, query):
        region, result = query
        report = build_graph(tissue, result.object_ids, region)
        assert report.resolution > 0
