"""Baseline prefetchers: prediction math and planning behaviour."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.baselines import (
    EWMAPrefetcher,
    HilbertPrefetcher,
    NoPrefetcher,
    ObservedQuery,
    PolynomialPrefetcher,
    StraightLinePrefetcher,
    VelocityPrefetcher,
)
from repro.baselines.base import CONCENTRIC_FACTORS, concentric_corners
from repro.baselines.hilbert_prefetch import N_PREFETCH_CELLS
from repro.geometry import AABB, boxes_overlap
from repro.index.base import region_corners
from tests.oracles.baselines import OraclePrefetcher
from tests.oracles import extrapolation as replaced


def observe_path(prefetcher, centers, side=10.0):
    """Feed a list of centers to a prefetcher as cube queries."""
    prefetcher.begin_sequence()
    for i, center in enumerate(centers):
        bounds = AABB.from_center_extent(np.asarray(center, dtype=float), side)
        prefetcher.observe(ObservedQuery(i, bounds, np.empty(0, dtype=np.int64)))


def predicted_center(prefetcher):
    """The center of the innermost of a position-only plan's packed regions."""
    (target,) = prefetcher.plan()
    regions = target.regions
    assert isinstance(regions, np.ndarray) and regions.shape == (3, 2, 3)
    lo, hi = regions[0]
    return (lo + hi) / 2.0


def _centers():
    coordinate = st.one_of(
        st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    return st.lists(coordinate, min_size=3, max_size=3).map(np.array)


class TestConcentricCorners:
    @given(
        center=_centers(),
        side=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, 1e300, 5e-324]),
            st.floats(min_value=0.0, max_value=1e308),
        ),
    )
    def test_packed_corners_are_the_boxes_bytes(self, center, side):
        # Near 1e308 both forms overflow to the same infinities.
        with np.errstate(over="ignore"):
            corners = concentric_corners(center, side)
            boxes = [AABB.from_center_extent(center, side * f) for f in (0.6, 0.85, 1.1)]
        assert corners.shape == (len(CONCENTRIC_FACTORS), 2, 3)
        assert corners.dtype == np.float64
        for (lo, hi), box in zip(corners, boxes):
            assert np.array_equal(lo, box.lo) and lo.tobytes() == box.lo.tobytes()
            assert np.array_equal(hi, box.hi) and hi.tobytes() == box.hi.tobytes()

    def test_every_position_only_baseline_plans_them(self):
        for prefetcher in (
            StraightLinePrefetcher(),
            PolynomialPrefetcher(degree=2),
            VelocityPrefetcher(),
            EWMAPrefetcher(),
        ):
            observe_path(prefetcher, [[0, 0, 0], [3, 1, 0], [6, 2, 1], [9, 4, 1]], side=7.0)
            (target,) = prefetcher.plan()
            expected = concentric_corners(target.anchor, prefetcher._sides[-1])
            assert np.array_equal(target.regions, expected)


#: Each position-only baseline, with its replaced per-query plan.
KERNELS = {
    "straight-line": (StraightLinePrefetcher, replaced.straight_line),
    "poly-2": (lambda: PolynomialPrefetcher(2), lambda c, s: replaced.polynomial(c, s, 2)),
    "poly-3": (lambda: PolynomialPrefetcher(3), lambda c, s: replaced.polynomial(c, s, 3)),
    "velocity": (VelocityPrefetcher, replaced.velocity),
    "ewma-0.3": (lambda: EWMAPrefetcher(0.3), lambda c, s: replaced.ewma(c, s, 0.3)),
    "ewma-0.7": (lambda: EWMAPrefetcher(0.7), lambda c, s: replaced.ewma(c, s, 0.7)),
}


@st.composite
def _walks(draw):
    """Query bounds of a walk of 1-12 queries; a step may stand still."""
    coordinate = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)
    point = st.lists(coordinate, min_size=3, max_size=3).map(np.array)
    centers = [draw(point)]
    for _ in range(draw(st.integers(0, 11))):
        centers.append(centers[-1] if draw(st.booleans()) else draw(point))
    sides = draw(st.lists(st.floats(0.5, 200.0), min_size=len(centers), max_size=len(centers)))
    return [AABB.from_center_extent(c, side) for c, side in zip(centers, sides)]


def _bytes(plan):
    return [
        (t.anchor.tobytes(), t.direction.tobytes(), t.regions.tobytes(), t.share) for t in plan
    ]


class TestPlanKernel:
    """One kernel plans a whole walk; ``plan()`` is its last row."""

    @pytest.mark.parametrize("kind", KERNELS)
    @given(bounds=_walks())
    def test_each_row_is_the_plan_after_observing_its_prefix(self, kind, bounds):
        make, replaced_plan = KERNELS[kind]
        walk = make().plan_walk(bounds)
        assert len(walk) == len(bounds)
        stepped, centers, sides = make(), [], []
        for i, box in enumerate(bounds):
            observed = ObservedQuery(i, box, np.empty(0, dtype=np.int64))
            stepped.observe(observed)
            centers.append(observed.center)
            sides.append(observed.side)
            row = _bytes(walk[i])
            assert row == _bytes(stepped.plan())
            assert row == _bytes(replaced_plan(centers, sides))

    @pytest.mark.parametrize("kind", KERNELS)
    def test_short_and_still_walks_plan_nothing(self, kind):
        make, _ = KERNELS[kind]
        box = AABB.from_center_extent(np.array([1.0, 2.0, 3.0]), 10.0)
        assert make().plan_walk([]) == []
        assert make().plan_walk([box]) == [[]]
        assert make().plan_walk([box] * 5) == [[]] * 5

    def test_planning_a_walk_leaves_the_history_alone(self):
        prefetcher = EWMAPrefetcher(0.3)
        observe_path(prefetcher, [[0, 0, 0], [3, 1, 0]])
        before = _bytes(prefetcher.plan())
        walk = [AABB.from_center_extent(np.array([x, 0.0, 0.0]), 5.0) for x in (0, 4, 9)]
        assert len(prefetcher.plan_walk(walk)[2]) == 1
        assert _bytes(prefetcher.plan()) == before and len(prefetcher._centers) == 2


class TestStraightLine:
    def test_needs_two_points(self):
        p = StraightLinePrefetcher()
        observe_path(p, [[0, 0, 0]])
        assert p.plan() == []

    def test_exact_on_linear_motion(self):
        p = StraightLinePrefetcher()
        observe_path(p, [[0, 0, 0], [3, 0, 0], [6, 0, 0]])
        assert np.allclose(predicted_center(p), [9, 0, 0])

    def test_no_plan_when_stationary(self):
        p = StraightLinePrefetcher()
        observe_path(p, [[1, 1, 1], [1, 1, 1]])
        assert p.plan() == []

    def test_begin_sequence_resets(self):
        p = StraightLinePrefetcher()
        observe_path(p, [[0, 0, 0], [3, 0, 0]])
        p.begin_sequence()
        assert p.plan() == []


class TestPolynomial:
    def test_exact_on_quadratic_motion(self):
        p = PolynomialPrefetcher(degree=2)
        centers = [[t * t, 2 * t, 0] for t in range(4)]
        observe_path(p, centers)
        assert np.allclose(predicted_center(p), [16, 8, 0], atol=1e-6)

    def test_no_plan_when_stationary(self):
        p = PolynomialPrefetcher(degree=2)
        observe_path(p, [[1, 1, 1]] * 3)
        assert p.plan() == []

    def test_needs_degree_plus_one(self):
        p = PolynomialPrefetcher(degree=3)
        observe_path(p, [[0, 0, 0], [1, 0, 0], [2, 0, 0]])
        assert p.plan() == []

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            PolynomialPrefetcher(degree=0)

    def test_name_includes_degree(self):
        assert PolynomialPrefetcher(3).name == "poly-3"


class TestVelocity:
    def test_averages_recent_velocity(self):
        p = VelocityPrefetcher()
        observe_path(p, [[0, 0, 0], [1, 0, 0], [3, 0, 0], [6, 0, 0], [10, 0, 0]])
        # The window holds the last three velocities, 2, 3 and 4 -> mean 3;
        # prediction 10 + 3 = 13.
        assert np.allclose(predicted_center(p), [13, 0, 0])

    def test_name_includes_window(self):
        assert VelocityPrefetcher().name == "velocity-3"


class TestEWMA:
    def test_constant_motion_exact(self):
        p = EWMAPrefetcher(lam=0.3)
        observe_path(p, [[0, 0, 0], [5, 0, 0], [10, 0, 0]])
        assert np.allclose(predicted_center(p), [15, 0, 0])

    def test_no_plan_when_stationary(self):
        p = EWMAPrefetcher(lam=0.3)
        observe_path(p, [[1, 1, 1]] * 3)
        assert p.plan() == []

    def test_recent_movement_dominates(self):
        p = EWMAPrefetcher(lam=0.8)
        observe_path(p, [[0, 0, 0], [10, 0, 0], [10, 1, 0]])
        prediction = predicted_center(p)
        # The recent +y movement outweighs the older +x one at high lambda.
        delta = prediction - np.array([10, 1, 0])
        assert delta[1] > 0
        assert abs(delta[0]) < 10 * 0.25

    def test_weights_follow_paper_formula(self):
        lam = 0.3
        p = EWMAPrefetcher(lam=lam)
        moves = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])]
        centers = [np.zeros(3)]
        for move in moves:
            centers.append(centers[-1] + move)
        observe_path(p, centers)
        weights = np.array([lam * (1 - lam) ** j for j in range(3)])
        weights /= weights.sum()
        expected_velocity = (
            weights[0] * moves[2] + weights[1] * moves[1] + weights[2] * moves[0]
        )
        assert np.allclose(predicted_center(p) - centers[-1], expected_velocity)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            EWMAPrefetcher(lam=0.0)
        with pytest.raises(ValueError):
            EWMAPrefetcher(lam=1.5)


class TestHilbert:
    def test_plans_cells_near_current(self, tissue):
        p = HilbertPrefetcher(tissue)
        observe_path(p, [tissue.bounds.center])
        (target,) = p.plan()
        assert target.regions is not None
        assert 1 <= len(target.regions) <= N_PREFETCH_CELLS
        lo, hi = region_corners(target.regions)
        near = tissue.bounds.inflate(1.0)
        assert boxes_overlap(lo, hi, near.lo, near.hi).all()

    def test_no_plan_before_observation(self, tissue):
        p = HilbertPrefetcher(tissue)
        p.begin_sequence()
        assert p.plan() == []

    def test_2d_dataset_uses_2d_curve(self, roads):
        p = HilbertPrefetcher(roads)
        observe_path(p, [roads.bounds.center])
        (target,) = p.plan()
        # All prefetched cells span the full z-extent (one z layer).
        lo, hi = region_corners(target.regions)
        assert ((hi - lo)[:, 2] >= roads.bounds.extent[2] * 0.99).all()


class TestTrivial:
    def test_no_prefetcher_never_plans(self):
        p = NoPrefetcher()
        observe_path(p, [[0, 0, 0], [1, 0, 0]])
        assert p.plan() == []

    def test_oracle_prefetches_true_next(self, tissue, rng):
        from repro.workload import generate_sequence

        seq = generate_sequence(tissue, rng, n_queries=4, volume=40_000.0)
        p = OraclePrefetcher([seq])
        p.begin_sequence()
        p.observe(ObservedQuery(0, seq.queries[0].bounds, np.empty(0, dtype=np.int64)))
        (target,) = p.plan()
        assert np.allclose(target.regions[0].center, seq.queries[1].bounds.center)

    def test_oracle_stops_at_sequence_end(self, tissue, rng):
        from repro.workload import generate_sequence

        seq = generate_sequence(tissue, rng, n_queries=2, volume=40_000.0)
        p = OraclePrefetcher([seq])
        p.begin_sequence()
        for i in range(2):
            p.observe(ObservedQuery(i, seq.queries[i].bounds, np.empty(0, dtype=np.int64)))
        assert p.plan() == []

    def test_oracle_requires_sequence(self, tissue, rng):
        from repro.workload import generate_sequence

        p = OraclePrefetcher([generate_sequence(tissue, rng, n_queries=2, volume=40_000.0)])
        p.begin_sequence()
        with pytest.raises(RuntimeError):
            p.begin_sequence()


class TestPrefetchTarget:
    def test_direction_normalized(self):
        from repro.baselines import PrefetchTarget

        target = PrefetchTarget(anchor=np.zeros(3), direction=np.array([0, 0, 5.0]))
        assert np.allclose(target.direction, [0, 0, 1])

    def test_rejects_negative_share(self):
        from repro.baselines import PrefetchTarget

        with pytest.raises(ValueError):
            PrefetchTarget(anchor=np.zeros(3), direction=np.ones(3), share=-0.5)
