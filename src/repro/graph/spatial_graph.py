"""Adjacency-list graph over spatial object ids.

The graph is deliberately simple: vertices are global object ids, edges
are undirected.  SCOUT's accuracy analysis (§8.2) reports the memory of
"the graph (adjacency list) and queues used for graph traversal", which
:meth:`SpatialGraph.memory_bytes` estimates with the same structure.
"""

from __future__ import annotations

from collections.abc import Iterable

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

    def merge(self, other: "SpatialGraph") -> None:
        """Union this graph with another in place."""
        for vertex, neighbors in other._adjacency.items():
            self._adjacency.setdefault(vertex, set()).update(neighbors)

    # -- inspection ---------------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        """Number of vertices."""
        return len(self._adjacency)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def __contains__(self, vertex: int) -> bool:
        return int(vertex) in self._adjacency

    def vertices(self) -> list[int]:
        """All vertex ids (insertion order)."""
        return list(self._adjacency.keys())

    def neighbors(self, vertex: int) -> set[int]:
        """The adjacency set of ``vertex`` (a live reference)."""
        return self._adjacency[int(vertex)]

    def degree(self, vertex: int) -> int:
        """Number of neighbors of ``vertex``."""
        return len(self._adjacency[int(vertex)])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge (u, v) exists."""
        return int(v) in self._adjacency.get(int(u), set())

    def edges(self) -> list[tuple[int, int]]:
        """All edges with ``u < v``, sorted for reproducibility."""
        result = []
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                if u < v:
                    result.append((u, v))
        return sorted(result)

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

    def component_of(self, vertex: int) -> set[int]:
        """The connected component containing ``vertex``."""
        vertex = int(vertex)
        if vertex not in self._adjacency:
            raise KeyError(f"vertex {vertex} not in graph")
        component = set()
        stack = [vertex]
        while stack:
            v = stack.pop()
            if v in component:
                continue
            component.add(v)
            stack.extend(self._adjacency[v] - component)
        return component

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
