"""Data generators: morphology, ground truth, navigation graph."""

import dataclasses
import math

import numpy as np
import pytest

from repro.datagen import (
    BranchingConfig,
    Dataset,
    grow_tree,
    make_arterial_tree,
    make_lung_airways,
    make_neuron_tissue,
    make_road_network,
)
from repro.datagen.dataset import NavEdge, NavigationGraph, Polyline
from repro.index import FlatIndex


class TestBranchingConfig:
    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            BranchingConfig(steps_per_branch=(5, 2))

    def test_rejects_bad_counts_and_lengths(self):
        for bad in ({"n_stems": 0}, {"max_depth": -1}, {"step_length": 0.0}, {"radius_root": 0.0}):
            with pytest.raises(ValueError):
                BranchingConfig(**bad)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            BranchingConfig(bifurcation_probability=1.5)
        with pytest.raises(ValueError):
            BranchingConfig(kink_probability=-0.1)


class TestGrowTree:
    def config(self):
        return BranchingConfig(n_stems=1, max_depth=2, steps_per_branch=(3, 5), step_length=2.0)

    def test_object_counts_match_branches(self, rng):
        tree = grow_tree(rng, np.zeros(3), np.array([0, 0, 1.0]), self.config())
        # 1 stem bifurcating twice: 1 + 2 + 4 = 7 branches of 3-5 steps.
        n_branches = len(np.unique(tree.branch_of_object))
        assert n_branches == 7
        assert 7 * 3 <= len(tree.p0) <= 7 * 5

    def test_segments_are_connected_chains(self, rng):
        tree = grow_tree(rng, np.zeros(3), np.array([0, 0, 1.0]), self.config())
        for branch in np.unique(tree.branch_of_object):
            members = np.flatnonzero(tree.branch_of_object == branch)
            for a, b in zip(members[:-1], members[1:]):
                assert np.allclose(tree.p1[a], tree.p0[b])

    def test_segment_lengths_equal_step(self, rng):
        tree = grow_tree(rng, np.zeros(3), np.array([0, 0, 1.0]), self.config())
        lengths = np.linalg.norm(tree.p1 - tree.p0, axis=1)
        assert np.allclose(lengths, 2.0)

    def test_nav_edges_match_branches(self, rng):
        tree = grow_tree(rng, np.zeros(3), np.array([0, 0, 1.0]), self.config())
        assert len(tree.nav_edges) == 7

    def test_kinks_increase_tortuosity(self):
        smooth_cfg = BranchingConfig(
            n_stems=1, max_depth=0, steps_per_branch=(200, 200), direction_jitter=0.0
        )
        kinked_cfg = BranchingConfig(
            n_stems=1, max_depth=0, steps_per_branch=(200, 200),
            direction_jitter=0.0, kink_probability=0.3, kink_angle=1.0,
        )
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(3)
        smooth = grow_tree(rng1, np.zeros(3), np.array([0, 0, 1.0]), smooth_cfg)
        kinked = grow_tree(rng2, np.zeros(3), np.array([0, 0, 1.0]), kinked_cfg)
        smooth_span = np.linalg.norm(smooth.p1[-1] - smooth.p0[0])
        kinked_span = np.linalg.norm(kinked.p1[-1] - kinked.p0[0])
        assert kinked_span < smooth_span


class TestNeuronTissue:
    def test_counts_and_ids(self, tissue):
        assert tissue.n_objects > 1000
        assert len(np.unique(tissue.structure_id)) == 12
        assert tissue.dims == 3

    def test_deterministic(self):
        a = make_neuron_tissue(n_neurons=3, seed=42)
        b = make_neuron_tissue(n_neurons=3, seed=42)
        assert np.array_equal(a.p0, b.p0)
        assert np.array_equal(a.branch_id, b.branch_id)

    def test_different_seeds_differ(self):
        a = make_neuron_tissue(n_neurons=3, seed=1)
        b = make_neuron_tissue(n_neurons=3, seed=2)
        assert not np.array_equal(a.p0, b.p0)

    def test_branch_ids_globally_unique(self, tissue):
        # Branches of different neurons never share an id.
        for branch in np.unique(tissue.branch_id)[:50]:
            owners = np.unique(tissue.structure_id[tissue.branch_id == branch])
            assert len(owners) == 1

    def test_rejects_zero_neurons(self):
        with pytest.raises(ValueError):
            make_neuron_tissue(n_neurons=0)

    def test_explicit_extent_honored(self):
        ds = make_neuron_tissue(n_neurons=3, seed=0, extent=100.0)
        # Somata confined to [0, 100]^3; fibers may extend beyond.
        assert ds.bounds.extent.max() < 100.0 + 2 * 600.0


class TestArterial:
    def test_single_tree(self, arterial):
        assert len(np.unique(arterial.structure_id)) == 1
        assert arterial.n_objects > 500

    def test_smoother_than_neurons(self, arterial, tissue):
        def mean_turn(ds, k=2000):
            deltas = ds.p1[:k] - ds.p0[:k]
            deltas /= np.linalg.norm(deltas, axis=1)[:, None]
            same_branch = ds.branch_id[1:k] == ds.branch_id[: k - 1]
            cos = np.sum(deltas[1:] * deltas[:-1], axis=1)[same_branch[: len(deltas) - 1]]
            return np.arccos(np.clip(cos, -1, 1)).mean()

        assert mean_turn(arterial) < mean_turn(tissue)


class TestLung:
    def test_mesh_has_explicit_adjacency(self, lung):
        assert lung.explicit_edges is not None
        assert len(lung.explicit_edges) > lung.n_objects  # ~3 neighbors per face

    def test_adjacency_ids_in_range(self, lung):
        assert lung.explicit_edges.min() >= 0
        assert lung.explicit_edges.max() < lung.n_objects

    def test_faces_near_centerline(self, lung):
        # Every face's representative segment lies within the tube radius
        # plus a step of the navigation polylines' bounding box.
        nav_points = np.vstack([e.polyline.points for e in lung.nav.edges])
        lo, hi = nav_points.min(axis=0) - 10, nav_points.max(axis=0) + 10
        assert np.all(lung.p0 >= lo) and np.all(lung.p0 <= hi)


class TestRoads:
    def test_planar(self, roads):
        assert roads.dims == 2
        assert np.allclose(roads.p0[:, 2], 0.0)
        assert np.allclose(roads.p1[:, 2], 0.0)

    def test_structures_are_roads(self, roads):
        assert len(np.unique(roads.structure_id)) > 20

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            make_road_network(grid_size=1)


#: The Fig-17 cross-domain generators at unit-test size, by name.
#: (The neuron tissue already has its own determinism tests above.)
CROSS_DOMAIN_GENERATORS = {
    "arterial": lambda seed: make_arterial_tree(seed=seed, max_depth=3),
    "lung": lambda seed: make_lung_airways(seed=seed, max_depth=3),
    "roads": lambda seed: make_road_network(grid_size=6, seed=seed),
}


class TestCrossDomainGenerators:
    """Direct contracts of the lung/arterial/roads generators.

    Previously only exercised transitively (through benchmarks and the
    Fig-17 grid); the sweep engine keys cells by spec content hash, so
    per-seed determinism is load-bearing for resume correctness.
    """

    @pytest.mark.parametrize("name", sorted(CROSS_DOMAIN_GENERATORS))
    def test_deterministic_per_seed(self, name):
        build = CROSS_DOMAIN_GENERATORS[name]
        a, b = build(3), build(3)
        assert np.array_equal(a.p0, b.p0) and np.array_equal(a.p1, b.p1)
        assert np.array_equal(a.structure_id, b.structure_id)
        assert np.array_equal(a.branch_id, b.branch_id)
        if a.explicit_edges is not None:
            assert np.array_equal(a.explicit_edges, b.explicit_edges)

    @pytest.mark.parametrize("name", sorted(CROSS_DOMAIN_GENERATORS))
    def test_different_seeds_differ(self, name):
        build = CROSS_DOMAIN_GENERATORS[name]
        assert not np.array_equal(build(3).p0, build(4).p0)

    @pytest.mark.parametrize("name", sorted(CROSS_DOMAIN_GENERATORS))
    def test_extent_non_degenerate(self, name):
        dataset = CROSS_DOMAIN_GENERATORS[name](3)
        extent = dataset.bounds.extent
        active = extent[: dataset.dims]
        assert np.all(active > 1.0), active  # spans real space on every active axis
        assert np.all(np.isfinite(extent))
        assert dataset.density() > 0

    @pytest.mark.parametrize("name", sorted(CROSS_DOMAIN_GENERATORS))
    def test_page_count_sanity(self, name):
        dataset = CROSS_DOMAIN_GENERATORS[name](3)
        index = FlatIndex(dataset, fanout=16)
        # Pages hold at most `fanout` objects, and every object is paged.
        assert index.n_pages >= math.ceil(dataset.n_objects / 16)
        assert index.n_pages <= dataset.n_objects
        assert index.n_pages > 1  # big enough to exercise prefetching

    def test_max_depth_caps_tree_size(self):
        assert (
            make_arterial_tree(seed=1, max_depth=2).n_objects
            < make_arterial_tree(seed=1, max_depth=4).n_objects
        )
        assert (
            make_lung_airways(seed=1, max_depth=2).n_objects
            < make_lung_airways(seed=1, max_depth=4).n_objects
        )


class TestDatasetContainer:
    def test_bounds_contain_everything(self, tissue):
        assert np.all(tissue.obj_lo >= tissue.bounds.lo - 1e-9)
        assert np.all(tissue.obj_hi <= tissue.bounds.hi + 1e-9)

    @pytest.mark.parametrize(
        ("bad", "message"),
        [
            ({"p0": np.zeros((0, 3))}, "non-empty and consistently shaped"),
            ({"dims": 4}, "dims must be 2 or 3"),
            ({"explicit_edges": np.zeros(3)}, r"\(m, 2\)"),
        ],
    )
    def test_rejects_bad_fields(self, tissue, bad, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(tissue, **bad)

    def test_density_positive(self, tissue, roads):
        assert tissue.density() > 0
        assert roads.density() > 0


class TestNavigationGraph:
    def test_random_walk_length(self, tissue, rng):
        walk = tissue.nav.random_walk(rng, 300.0)
        assert walk.length >= 300.0

    def test_walk_points_lie_on_structures(self, tissue, rng):
        walk = tissue.nav.random_walk(rng, 200.0)
        # Walk points are polyline points of nav edges, which trace the
        # branch geometry: each sampled point must be near some object.
        sample = walk.points[:: max(1, len(walk.points) // 20)]
        for point in sample:
            distances = np.linalg.norm(tissue.centroids - point, axis=1)
            assert distances.min() < 20.0

    def test_rejects_bad_nodes_and_edges(self):
        line = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            NavigationGraph(np.zeros((2, 2)), [])
        with pytest.raises(ValueError, match="unknown node 2"):
            NavigationGraph(line, [NavEdge(0, 2, Polyline(line))])
        with pytest.raises(ValueError, match="no edges"):
            NavigationGraph(line, []).random_walk(np.random.default_rng(0), 5.0)

    def test_walk_deterministic_given_rng(self, tissue):
        w1 = tissue.nav.random_walk(np.random.default_rng(5), 200.0)
        w2 = tissue.nav.random_walk(np.random.default_rng(5), 200.0)
        assert np.allclose(w1.points, w2.points)


class TestPolyline:
    def test_length(self):
        poly = Polyline(np.array([[0, 0, 0], [3, 4, 0], [3, 4, 5]], dtype=float))
        assert poly.length == pytest.approx(10.0)

    def test_points_at_interpolates(self):
        poly = Polyline(np.array([[0, 0, 0], [10, 0, 0]], dtype=float))
        assert np.allclose(poly.points_at([2.5])[0], [2.5, 0, 0])

    def test_points_at_clamps(self):
        poly = Polyline(np.array([[0, 0, 0], [10, 0, 0]], dtype=float))
        assert np.allclose(poly.points_at([-5])[0], [0, 0, 0])
        assert np.allclose(poly.points_at([50])[0], [10, 0, 0])

    def test_tangent_of_a_zero_length_segment_is_plus_x(self):
        poly = Polyline(np.array([[1, 1, 1], [1, 1, 1]], dtype=float))
        assert np.array_equal(poly.tangent_at(0.0), [1, 0, 0])

    def test_tangent_unit(self):
        poly = Polyline(np.array([[0, 0, 0], [0, 2, 0], [0, 2, 2]], dtype=float))
        assert np.allclose(poly.tangent_at(1.0), [0, 1, 0])
        assert np.allclose(poly.tangent_at(3.0), [0, 0, 1])

    def test_reversed(self):
        poly = Polyline(np.array([[0, 0, 0], [1, 0, 0]], dtype=float))
        assert np.allclose(poly.reversed().points[0], [1, 0, 0])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            Polyline(np.array([[0, 0, 0]], dtype=float))
