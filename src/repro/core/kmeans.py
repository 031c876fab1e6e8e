"""Deterministic k-means (Lloyd's algorithm with k-means++ seeding).

Broad prefetching limits the number of prefetch locations by clustering
candidate exit locations and picking one exit per cluster (§5.2.2: "We
use a k-means approach to find d clusters ... Because k-means has a
smoothed polynomial complexity, it does not impose an undue overhead").
A tiny self-contained implementation keeps the core dependency-free.
"""

from __future__ import annotations

import numpy as np

from repro.util import norm

__all__ = ["kmeans"]

#: Lloyd iterations before giving up on convergence.
MAX_ITERATIONS = 50


def _kmeans_pp_seeds(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ initial centers."""
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest_sq = np.sum((points - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centers; reuse any point.
            centers[i:] = points[int(rng.integers(n))]
            break
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centers[i] = points[choice]
        closest_sq = np.minimum(closest_sq, np.sum((points - centers[i]) ** 2, axis=1))
    return centers


def kmeans(
    points: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Cluster ``points`` into ``k`` groups.

    Returns ``(centers, labels)``.  When ``k >= len(points)`` every point
    is its own cluster.  Empty clusters are re-seeded on the farthest
    point, so exactly ``k`` clusters are always returned.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("points must be a non-empty (n, d) array")
    if k < 1:
        raise ValueError("k must be >= 1")
    n = len(points)
    if k >= n:
        return points.copy(), np.arange(n)

    centers = _kmeans_pp_seeds(points, k, rng)
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(MAX_ITERATIONS):
        distances = norm(points[:, None, :] - centers[None, :, :])
        new_labels = np.argmin(distances, axis=1)
        for cluster in range(k):
            members = points[new_labels == cluster]
            if len(members):
                centers[cluster] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster on the point farthest from
                # its current center.
                farthest = int(np.argmax(distances[np.arange(n), new_labels]))
                centers[cluster] = points[farthest]
                new_labels[farthest] = cluster
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels
