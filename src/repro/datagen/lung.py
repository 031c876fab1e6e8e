"""Synthetic lung-airway surface mesh.

Stand-in for the human lung airway model [Achenbach et al.] used in
Figures 1 and 17 (7.1M triangles, 527 MB).  Airways are bifurcating tubes
whose *surface* is a triangle mesh; the mesh's face-adjacency gives SCOUT
an explicit graph representation (§4.2: "polygon faces [are vertices] and
edges connect adjacent polygon faces"), exercising the code path that
skips grid hashing entirely.

The generator grows a centerline tree (moderate tortuosity) and sweeps a
hexagonal ring along each branch, triangulating between consecutive
rings.  Face adjacency is derived from shared mesh edges.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.datagen.branching import BranchingConfig, grow_tree
from repro.datagen.dataset import Dataset, NavigationGraph
from repro.geometry.primitives import perpendicular_frame
from repro.util import norm

__all__ = ["make_lung_airways", "LUNG_CONFIG"]

#: Airway centerlines: smoother than neurons, rougher than arteries.
LUNG_CONFIG = BranchingConfig(
    n_stems=1,
    max_depth=6,
    steps_per_branch=(14, 22),
    step_length=8.0,
    direction_jitter=0.12,
    bifurcation_angle=0.7,
    radius_root=4.0,
    radius_decay=0.75,
)

#: Vertices per tube cross-section ring.
RING_VERTICES = 6


def _tube_faces(
    centers: np.ndarray,
    directions: np.ndarray,
    radii: np.ndarray,
) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Sweep rings along a centerline; return vertices and triangle faces."""
    angles = np.linspace(0.0, 2.0 * np.pi, RING_VERTICES, endpoint=False)
    vertices: list[np.ndarray] = []
    faces: list[tuple[int, int, int]] = []
    ring_start = []
    for center, direction, radius in zip(centers, directions, radii):
        u, v = perpendicular_frame(direction)
        ring_start.append(len(vertices))
        for angle in angles:
            vertices.append(center + radius * (np.cos(angle) * u + np.sin(angle) * v))
    for ring in range(len(centers) - 1):
        a = ring_start[ring]
        b = ring_start[ring + 1]
        for k in range(RING_VERTICES):
            k2 = (k + 1) % RING_VERTICES
            faces.append((a + k, a + k2, b + k))
            faces.append((a + k2, b + k2, b + k))
    return np.array(vertices), faces


def _face_adjacency(
    faces: list[tuple[int, int, int]], face_id_offset: int
) -> list[tuple[int, int]]:
    """Pairs of faces sharing a mesh edge."""
    edge_to_faces: dict[tuple[int, int], list[int]] = {}
    for face_id, (a, b, c) in enumerate(faces):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (min(u, v), max(u, v))
            edge_to_faces.setdefault(key, []).append(face_id + face_id_offset)
    pairs = []
    for shared in edge_to_faces.values():
        for i in range(len(shared)):
            for j in range(i + 1, len(shared)):
                pairs.append((shared[i], shared[j]))
    return pairs


def make_lung_airways(seed: int = 0, max_depth: int | None = None) -> Dataset:
    """Generate a bifurcating airway surface mesh with explicit adjacency.

    Each object is a triangle face; its representative segment is its
    longest edge (used only for spatial extent and exit directions --
    the proximity graph comes from the explicit adjacency).
    ``max_depth`` overrides :data:`LUNG_CONFIG`'s bifurcation depth -- a
    scalar knob, so declarative sweep specs can size the mesh.
    """
    config = LUNG_CONFIG
    if max_depth is not None:
        config = replace(config, max_depth=int(max_depth))
    rng = np.random.default_rng(seed)
    root = np.zeros(3)
    tree = grow_tree(rng, root, np.array([0.0, 0.0, 1.0]), config)

    p0_parts, p1_parts = [], []
    structure_parts, branch_parts = [], []
    all_edges: list[tuple[int, int]] = []
    face_offset = 0

    # Sweep a tube along each navigation edge's polyline independently.
    # Faces of different branches are linked only through grid-free
    # explicit adjacency within a branch; junction continuity comes from
    # overlapping first/last rings of parent and child branches.
    for branch_id, nav_edge in enumerate(tree.nav_edges):
        points = nav_edge.polyline.points
        deltas = np.diff(points, axis=0)
        directions = deltas / np.maximum(norm(deltas)[:, None], 1e-12)
        directions = np.vstack([directions, directions[-1]])
        radii = np.full(len(points), 2.0)  # constant tube radius keeps the mesh well-formed
        vertices, faces = _tube_faces(points, directions, radii)

        for a, b, c in faces:
            va, vb, vc = vertices[a], vertices[b], vertices[c]
            # Longest edge of the triangle is the representative segment.
            edges = [(va, vb), (vb, vc), (vc, va)]
            lengths = [norm(q - p) for p, q in edges]
            p, q = edges[int(np.argmax(lengths))]
            p0_parts.append(p)
            p1_parts.append(q)
            structure_parts.append(0)
            branch_parts.append(branch_id)
        all_edges.extend(_face_adjacency(faces, face_offset))
        face_offset += len(faces)

    nav = NavigationGraph(tree.nav_nodes, tree.nav_edges)
    n = len(p0_parts)
    return Dataset(
        name="lung-airways",
        p0=np.array(p0_parts),
        p1=np.array(p1_parts),
        radius=np.zeros(n),
        structure_id=np.array(structure_parts, dtype=np.int64),
        branch_id=np.array(branch_parts, dtype=np.int64),
        nav=nav,
        explicit_edges=np.array(all_edges, dtype=np.int64) if all_edges else None,
    )
