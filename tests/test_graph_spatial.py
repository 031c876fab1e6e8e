"""SpatialGraph: structure ops and components vs networkx reference."""

import networkx as nx
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import SpatialGraph


def random_graph(seed: int, n: int = 40, p: float = 0.08) -> tuple[SpatialGraph, nx.Graph]:
    rng = np.random.default_rng(seed)
    ours = SpatialGraph(range(n))
    theirs = nx.Graph()
    theirs.add_nodes_from(range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                ours.add_edge(u, v)
                theirs.add_edge(u, v)
    return ours, theirs


class TestBasics:
    def test_add_edge_symmetric(self):
        g = SpatialGraph()
        g.add_edge(1, 2)
        assert g.reachable_from([1]) == g.reachable_from([2]) == {1, 2}
        assert g.n_edges == 1

    def test_self_loops_ignored(self):
        g = SpatialGraph()
        g.add_edge(3, 3)
        assert g.n_edges == 0

    def test_isolated_vertices_counted(self):
        g = SpatialGraph([1, 2, 3])
        assert g.n_vertices == 3 and g.n_edges == 0


class TestComponents:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_networkx(self, seed):
        ours, theirs = random_graph(seed)
        expected = sorted(
            (sorted(c) for c in nx.connected_components(theirs)), key=len, reverse=True
        )
        got = sorted((sorted(c) for c in ours.connected_components()), key=len, reverse=True)
        assert sorted(map(tuple, got)) == sorted(map(tuple, expected))

    def test_largest_first(self):
        g = SpatialGraph([9])
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        comps = g.connected_components()
        assert len(comps[0]) >= len(comps[-1])

    def test_reachable_from(self):
        g = SpatialGraph([4])
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        assert g.reachable_from([0]) == {0, 1, 2}
        assert g.reachable_from([4]) == {4}
        assert g.reachable_from([99]) == set()

    def test_subgraph_induced(self):
        g = SpatialGraph()
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        sub = g.subgraph([0, 1, 2])
        assert sorted(sub.vertices()) == [0, 1, 2]
        assert sub.reachable_from([0]) == {0, 1, 2}
        assert sub.n_edges == 2


class TestMemoryAccounting:
    def test_memory_scales_with_edges(self):
        sparse = SpatialGraph(range(100))
        dense = SpatialGraph(range(100))
        for i in range(99):
            dense.add_edge(i, i + 1)
        assert dense.memory_bytes() > sparse.memory_bytes()

    def test_subgraph_memory_smaller(self):
        g = SpatialGraph()
        for i in range(50):
            g.add_edge(i, i + 1)
        sub = g.subgraph(range(10))
        assert sub.memory_bytes() < g.memory_bytes()
