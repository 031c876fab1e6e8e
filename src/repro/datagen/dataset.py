"""Dataset container and ground-truth navigation graph.

A :class:`Dataset` stores the spatial objects as arrays (each object is a
line segment with a radius -- the reduction the paper applies to BBP
cylinders -- or a mesh face with a representative segment), together with
the ground-truth :class:`NavigationGraph` of guiding structures.  The
navigation graph is used *only* by the workload generator to synthesize
guided query sequences; prefetchers never see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.geometry.aabb import AABB
from repro.util import norm

__all__ = ["Dataset", "NavEdge", "NavigationGraph", "Polyline"]

#: Approximate on-disk footprint of one object.  The paper stores two
#: endpoints plus radii and attributes; 79% of the 33 GB/450M dataset is
#: geometry, i.e. ~58 bytes of geometry and ~73 bytes total per cylinder.
OBJECT_BYTES = 72


class Polyline:
    """An open 3D polyline with arc-length parameterization."""

    def __init__(self, points) -> None:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3 or len(points) < 2:
            raise ValueError(f"polyline needs an (n>=2, 3) array, got {points.shape}")
        self.points = points
        deltas = norm(np.diff(points, axis=0))
        self._cumulative = np.concatenate([[0.0], np.cumsum(deltas)])

    @property
    def length(self) -> float:
        return float(self._cumulative[-1])

    def points_at(self, arcs) -> np.ndarray:
        """The point at each arc-length in ``arcs``, as an ``(n, 3)`` array.

        Element by element: each row is computed from its own arc alone
        (clamp, segment lookup, then ``p0 + t * (p1 - p0)``), so row ``i``
        is bit-identical however many arcs share the call.  A zero-length
        segment yields its start point.
        """
        arcs = np.clip(np.asarray(arcs, dtype=np.float64), 0.0, self.length)
        idx = np.searchsorted(self._cumulative, arcs, side="right") - 1
        idx = np.minimum(idx, len(self.points) - 2)
        start = self._cumulative[idx]
        seg_len = self._cumulative[idx + 1] - start
        moving = seg_len > 0
        t = np.divide(arcs - start, seg_len, out=np.zeros_like(arcs), where=moving)
        p0 = self.points[idx]
        along = p0 + t[:, None] * (self.points[idx + 1] - p0)
        return np.where(moving[:, None], along, p0)

    def tangent_at(self, arc: float) -> np.ndarray:
        """Unit tangent at arc-length ``arc``."""
        arc = float(np.clip(arc, 0.0, self.length))
        idx = int(np.searchsorted(self._cumulative, arc, side="right") - 1)
        idx = min(max(idx, 0), len(self.points) - 2)
        delta = self.points[idx + 1] - self.points[idx]
        length = norm(delta)
        if length == 0:
            return np.array([1.0, 0.0, 0.0])
        return delta / length

    def reversed(self) -> "Polyline":
        return Polyline(self.points[::-1].copy())


@dataclass(frozen=True)
class NavEdge:
    """A guiding-structure arc between two junction nodes."""

    u: int
    v: int
    polyline: Polyline


class NavigationGraph:
    """Ground-truth junction/arc graph of the guiding structures.

    Nodes are junction points (somata, bifurcations, road intersections);
    edges are the polyline arcs between them.  :meth:`random_walk`
    produces the continuous navigation paths that guide query sequences.
    """

    def __init__(self, nodes: np.ndarray, edges: list[NavEdge]) -> None:
        self.nodes = np.asarray(nodes, dtype=np.float64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 3:
            raise ValueError("nodes must be an (n, 3) array")
        self.edges = list(edges)
        # Each edge's polyline walked v -> u, built on first use.
        self._backward: list[Polyline | None] = [None] * len(self.edges)
        self._adjacency: dict[int, list[int]] = {}
        for edge_id, edge in enumerate(self.edges):
            for node in (edge.u, edge.v):
                if not 0 <= node < len(self.nodes):
                    raise ValueError(f"edge references unknown node {node}")
            self._adjacency.setdefault(edge.u, []).append(edge_id)
            self._adjacency.setdefault(edge.v, []).append(edge_id)

    def edges_at(self, node: int) -> list[int]:
        return self._adjacency.get(node, [])

    def random_walk(
        self,
        rng: np.random.Generator,
        min_length: float,
        start_edge: int | None = None,
    ) -> Polyline:
        """A continuous guiding path of at least ``min_length`` arc length.

        Walks edge polylines end-to-end; at each junction it continues on
        a uniformly random incident edge other than the one it arrived
        by (falling back to reversing at dead ends).  This mirrors how a
        scientist follows a neuron fiber across bifurcations.
        """
        if not self.edges:
            raise ValueError("navigation graph has no edges")
        edge_id = int(start_edge) if start_edge is not None else int(rng.integers(len(self.edges)))
        edge = self.edges[edge_id]
        forward = bool(rng.integers(2))
        pieces: list[np.ndarray] = []
        walked = 0.0
        current_node = edge.u if forward else edge.v
        visited_edges: set[int] = set()

        for _ in range(10_000):  # hard stop against degenerate graphs
            poly = edge.polyline if current_node == edge.u else self._walked_backward(edge_id)
            # Later pieces skip their first point: it is the junction just left.
            pieces.append(poly.points[1:] if pieces else poly.points)
            # A backward polyline's own length: its cumsum runs the other
            # way and can differ from the forward one in the last bit.
            walked += poly.length
            visited_edges.add(edge_id)
            current_node = edge.v if current_node == edge.u else edge.u
            if walked >= min_length:
                break
            # A scientist follows the structure onward: prefer arcs not
            # yet traversed (retracing an arc re-reads data already seen),
            # falling back to any continuation, then to turning around.
            options = [e for e in self.edges_at(current_node) if e != edge_id]
            fresh = [e for e in options if e not in visited_edges]
            if fresh:
                options = fresh
            elif not options:
                options = [edge_id]  # dead end: turn around
            edge_id = int(options[int(rng.integers(len(options)))])
            edge = self.edges[edge_id]
        points = np.concatenate(pieces)
        return Polyline(points)

    def _walked_backward(self, edge_id: int) -> Polyline:
        backward = self._backward[edge_id]
        if backward is None:
            backward = self._backward[edge_id] = self.edges[edge_id].polyline.reversed()
        return backward


@dataclass
class Dataset:
    """A spatial dataset of segment-like objects plus ground truth.

    ``p0``/``p1`` are the representative segment endpoints of each object
    (cylinder axis, road segment, or longest edge of a mesh face);
    ``radius`` the object radius (0 for meshes/roads).  ``structure_id``
    identifies the ground-truth structure (neuron, artery, airway, road)
    and ``branch_id`` the branch within it -- used for evaluation and
    workload generation only.  ``explicit_edges`` carries mesh adjacency
    when the dataset has an explicit graph representation (§4.2).
    """

    name: str
    p0: np.ndarray
    p1: np.ndarray
    radius: np.ndarray
    structure_id: np.ndarray
    branch_id: np.ndarray
    nav: NavigationGraph
    dims: int = 3
    explicit_edges: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.p0 = np.asarray(self.p0, dtype=np.float64)
        self.p1 = np.asarray(self.p1, dtype=np.float64)
        self.radius = np.asarray(self.radius, dtype=np.float64)
        self.structure_id = np.asarray(self.structure_id, dtype=np.int64)
        self.branch_id = np.asarray(self.branch_id, dtype=np.int64)
        n = len(self.p0)
        shapes_ok = (
            self.p0.shape == (n, 3)
            and self.p1.shape == (n, 3)
            and self.radius.shape == (n,)
            and self.structure_id.shape == (n,)
            and self.branch_id.shape == (n,)
        )
        if not shapes_ok or n == 0:
            raise ValueError("dataset arrays must be non-empty and consistently shaped")
        if self.dims not in (2, 3):
            raise ValueError("dims must be 2 or 3")
        if self.explicit_edges is not None:
            self.explicit_edges = np.asarray(self.explicit_edges, dtype=np.int64)
            if self.explicit_edges.ndim != 2 or self.explicit_edges.shape[1] != 2:
                raise ValueError("explicit_edges must be an (m, 2) array")

    # -- derived arrays -----------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.p0)

    @cached_property
    def obj_lo(self) -> np.ndarray:
        return np.minimum(self.p0, self.p1) - self.radius[:, None]

    @cached_property
    def obj_hi(self) -> np.ndarray:
        return np.maximum(self.p0, self.p1) + self.radius[:, None]

    @cached_property
    def centroids(self) -> np.ndarray:
        return (self.p0 + self.p1) / 2.0

    @cached_property
    def bounds(self) -> AABB:
        return AABB(self.obj_lo.min(axis=0), self.obj_hi.max(axis=0))

    def density(self) -> float:
        """Objects per unit volume (per unit area for 2D datasets)."""
        extent = self.bounds.extent
        if self.dims == 2:
            measure = float(extent[0] * extent[1])
        else:
            measure = float(np.prod(extent))
        return self.n_objects / max(measure, 1e-12)
