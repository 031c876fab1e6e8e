"""SCOUT-OPT gap traversal (§6.3) on controlled geometries.

Builds datasets whose structures bend inside a gap region and checks
that the traversal follows the bend where linear extrapolation cannot.
"""

import numpy as np

from repro.core import ScoutOptPrefetcher
from repro.datagen.dataset import Dataset, NavEdge, NavigationGraph, Polyline
from repro.index import FlatIndex


def polyline_dataset(points: np.ndarray, pad_objects: int = 300, seed: int = 0) -> Dataset:
    """One guiding chain plus random background clutter for the index."""
    rng = np.random.default_rng(seed)
    p0 = [points[i] for i in range(len(points) - 1)]
    p1 = [points[i + 1] for i in range(len(points) - 1)]
    branch = [0] * len(p0)
    lo = points.min(axis=0) - 30
    hi = points.max(axis=0) + 30
    for _ in range(pad_objects):
        a = rng.uniform(lo, hi)
        b = a + rng.normal(scale=1.5, size=3)
        p0.append(a)
        p1.append(b)
        branch.append(1 + len(branch))
    n = len(p0)
    nav = NavigationGraph(
        np.array([points[0], points[-1]]), [NavEdge(0, 1, Polyline(points))]
    )
    return Dataset(
        name="gap-chain",
        p0=np.array(p0),
        p1=np.array(p1),
        radius=np.zeros(n),
        structure_id=np.array(
            [0] * (len(points) - 1) + list(range(1, n - len(points) + 2)), dtype=np.int64
        ),
        branch_id=np.array(branch, dtype=np.int64),
        nav=nav,
    )


def bent_chain(bend_at: float, angle: float, length: float = 120.0, step: float = 2.0):
    """A chain along +x that turns by ``angle`` (in the xy plane) at x=bend_at."""
    points = [np.array([0.0, 0.0, 0.0])]
    direction = np.array([1.0, 0.0, 0.0])
    turned = False
    while np.linalg.norm(points[-1] - points[0]) < length:
        if not turned and points[-1][0] >= bend_at:
            c, s = np.cos(angle), np.sin(angle)
            direction = np.array([c * direction[0] - s * direction[1],
                                  s * direction[0] + c * direction[1], 0.0])
            turned = True
        points.append(points[-1] + direction * step)
    return np.array(points)


class TestGapTraversal:
    def make_opt(self, dataset):
        index = FlatIndex(dataset, fanout=8)
        return ScoutOptPrefetcher(dataset, index), index

    def test_follows_a_bend_better_than_linear(self):
        # Chain bends 50 degrees at x=30; gap region spans x in [20, 45].
        points = bent_chain(bend_at=30.0, angle=np.deg2rad(50))
        dataset = polyline_dataset(points)
        opt, index = self.make_opt(dataset)

        start = np.array([20.0, 0.0, 0.0])
        direction = np.array([1.0, 0.0, 0.0])
        gap = 25.0
        landed, heading, pages = opt._traverse_gaps([start], [direction], gap, page_budget=60)[0]
        linear = start + direction * gap

        # The true structure point ~25 units of arc beyond the start.
        arc_target = None
        walked = 0.0
        for a, b in zip(points[:-1], points[1:]):
            seg = np.linalg.norm(b - a)
            if np.allclose(a[2], 0) and a[0] >= 20.0:
                walked += seg
                if walked >= gap:
                    arc_target = b
                    break
        assert arc_target is not None
        assert np.linalg.norm(landed - arc_target) < np.linalg.norm(linear - arc_target)
        assert pages  # it actually read pages

    def test_respects_page_budget(self):
        points = bent_chain(bend_at=30.0, angle=np.deg2rad(50))
        dataset = polyline_dataset(points)
        opt, index = self.make_opt(dataset)
        _, _, pages = opt._traverse_gaps(
            [np.array([20.0, 0, 0])], [np.array([1.0, 0, 0])], gap=50.0, page_budget=3
        )[0]
        # The loop stops as soon as the budget is reached; the final
        # probe may add a handful of pages at most.
        assert len(pages) <= 3 + 10

    def test_empty_space_falls_back_to_linear(self):
        points = bent_chain(bend_at=1e9, angle=0.0, length=40.0)
        dataset = polyline_dataset(points, pad_objects=50)
        opt, index = self.make_opt(dataset)
        start = np.array([500.0, 500.0, 500.0])  # nowhere near data
        direction = np.array([0.0, 0.0, 1.0])
        landed, heading, pages = opt._traverse_gaps([start], [direction], 10.0, page_budget=20)[0]
        assert np.allclose(heading, direction)
        assert np.allclose(landed, start + direction * 10.0)

    def test_local_direction_sign_alignment(self):
        points = bent_chain(bend_at=1e9, angle=0.0, length=40.0)
        dataset = polyline_dataset(points, pad_objects=0)
        opt, _ = self.make_opt(dataset)
        ids = np.arange(dataset.n_objects)
        # Heading along -x: segment directions stored +x must be flipped.
        direction = opt._local_direction(ids, np.array([-1.0, 0.0, 0.0]))
        assert direction is not None
        assert direction[0] < 0

    def test_local_direction_none_when_orthogonal(self):
        points = bent_chain(bend_at=1e9, angle=0.0, length=40.0)
        dataset = polyline_dataset(points, pad_objects=0)
        opt, _ = self.make_opt(dataset)
        ids = np.arange(dataset.n_objects)
        # Heading perpendicular to every segment: no aligned objects.
        direction = opt._local_direction(ids, np.array([0.0, 0.0, 1.0]))
        assert direction is None
