"""Adjacency-list graph over spatial object ids.

The graph is deliberately simple: vertices are global object ids, edges
are undirected.  SCOUT's accuracy analysis (§8.2) reports the memory of
"the graph (adjacency list) and queues used for graph traversal", which
:meth:`SpatialGraph.memory_bytes` estimates with the same structure.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import combinations

__all__ = ["SpatialGraph"]


class SpatialGraph:
    """Undirected graph keyed by object id."""

    def __init__(self, vertices: Iterable[int] = ()) -> None:
        self._adjacency: dict[int, set[int]] = {int(v): set() for v in vertices}

    # -- construction -----------------------------------------------------------

    def add_edge(self, u: int, v: int) -> None:
        """Add an undirected edge (self-loops are ignored)."""
        u, v = int(u), int(v)
        if u == v:
            return
        self._adjacency.setdefault(u, set()).add(v)
        self._adjacency.setdefault(v, set()).add(u)

    def connect_runs(self, runs: Iterable[list[int]]) -> None:
        """Connect every pair of each run, as ``add_edge`` over ``combinations(run, 2)``.

        A run is a list of distinct vertices the graph already holds
        (the members of one shared grid cell); edges go straight into
        their adjacency sets, in the order the ``add_edge`` loop would
        insert them.
        """
        adjacency = self._adjacency
        for run in runs:
            for u, v in combinations(run, 2):
                adjacency[u].add(v)
                adjacency[v].add(u)

    # -- inspection ---------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return len(self._adjacency)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def vertices(self) -> list[int]:
        """All vertex ids (insertion order)."""
        return list(self._adjacency.keys())

    # -- algorithms ---------------------------------------------------------------

    def connected_components(self) -> list[set[int]]:
        """Connected components via iterative DFS, largest first."""
        seen: set[int] = set()
        components: list[set[int]] = []
        for start in self._adjacency:
            if start in seen:
                continue
            component = set()
            stack = [start]
            while stack:
                vertex = stack.pop()
                if vertex in component:
                    continue
                component.add(vertex)
                stack.extend(self._adjacency[vertex] - component)
            seen |= component
            components.append(component)
        components.sort(key=len, reverse=True)
        return components

    def reachable_from(self, seeds: Iterable[int]) -> set[int]:
        """All vertices reachable from any of the seed vertices."""
        reached: set[int] = set()
        stack = [int(s) for s in seeds if int(s) in self._adjacency]
        while stack:
            vertex = stack.pop()
            if vertex in reached:
                continue
            reached.add(vertex)
            stack.extend(self._adjacency[vertex] - reached)
        return reached

    def subgraph(self, vertices: Iterable[int]) -> "SpatialGraph":
        """The induced subgraph on the given vertex set."""
        keep = {int(v) for v in vertices}
        result = SpatialGraph(keep & set(self._adjacency))
        for vertex in result.vertices():
            for neighbor in self._adjacency[vertex]:
                if neighbor in keep:
                    result.add_edge(vertex, neighbor)
        return result

    # -- accounting ----------------------------------------------------------------

    def memory_bytes(self) -> int:
        """Rough footprint of the adjacency list plus traversal queues.

        8 bytes per vertex slot, 8 per directed adjacency entry, plus a
        traversal queue bounded by the vertex count -- mirroring the
        structures §8.2 accounts for.
        """
        directed_entries = sum(len(neighbors) for neighbors in self._adjacency.values())
        return 8 * self.n_vertices + 8 * directed_entries + 8 * self.n_vertices
