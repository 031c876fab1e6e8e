"""Protocol conformance across every prefetcher implementation.

The simulator assumes all prefetchers behave uniformly: distinct names,
safe re-sequencing, plans that are always well-formed lists of
PrefetchTargets, and non-negative cost reports.  One parametrized suite
enforces this for the whole zoo, so adding a prefetcher cannot silently
break the harness.
"""

import numpy as np
import pytest

from repro.baselines import (
    EWMAPrefetcher,
    HilbertPrefetcher,
    NoPrefetcher,
    ObservedQuery,
    PolynomialPrefetcher,
    PrefetchTarget,
    StraightLinePrefetcher,
    VelocityPrefetcher,
)
from repro.core import ScoutOptPrefetcher, ScoutPrefetcher
from repro.geometry import AABB


def all_prefetchers(tissue, tissue_flat):
    return [
        NoPrefetcher(),
        StraightLinePrefetcher(),
        PolynomialPrefetcher(2),
        PolynomialPrefetcher(3),
        VelocityPrefetcher(),
        EWMAPrefetcher(0.3),
        HilbertPrefetcher(tissue),
        ScoutPrefetcher(tissue),
        ScoutOptPrefetcher(tissue, tissue_flat),
    ]


@pytest.fixture()
def observations(tissue, tissue_flat, rng):
    from repro.workload import generate_sequence

    sequence = generate_sequence(tissue, rng, n_queries=5, volume=40_000.0)
    observed = []
    for i, query in enumerate(sequence.queries):
        result = tissue_flat.query(query.bounds)
        observed.append(ObservedQuery(i, query.bounds, result.object_ids))
    return observed


class TestProtocol:
    def test_names_are_unique(self, tissue, tissue_flat):
        names = [p.name for p in all_prefetchers(tissue, tissue_flat)]
        assert len(names) == len(set(names))

    def test_plan_before_any_observation_is_safe(self, tissue, tissue_flat):
        for prefetcher in all_prefetchers(tissue, tissue_flat):
            prefetcher.begin_sequence()
            plan = prefetcher.plan()
            assert isinstance(plan, list)
            for target in plan:
                assert isinstance(target, PrefetchTarget)

    def test_full_drive_produces_valid_plans(self, tissue, tissue_flat, observations):
        for prefetcher in all_prefetchers(tissue, tissue_flat):
            prefetcher.begin_sequence()
            for observed in observations:
                prefetcher.observe(observed)
                plan = prefetcher.plan()
                assert isinstance(plan, list)
                for target in plan:
                    assert np.isfinite(target.anchor).all()
                    assert np.isfinite(target.direction).all()
                    assert target.share >= 0
                    regions = target.regions
                    if isinstance(regions, np.ndarray):
                        # Packed corners: (n, 2, 3) float64, lo <= hi.
                        assert regions.dtype == np.float64
                        assert regions.ndim == 3 and regions.shape[1:] == (2, 3)
                        assert (regions[:, 0] <= regions[:, 1]).all()
                    elif regions is not None:
                        assert all(isinstance(r, AABB) for r in regions)
                assert prefetcher.prediction_cost_seconds() >= 0.0
                assert prefetcher.graph_build_cost_seconds() >= 0.0
                assert isinstance(prefetcher.gap_io_pages(), list)

    def test_begin_sequence_is_idempotent(self, tissue, tissue_flat, observations):
        for prefetcher in all_prefetchers(tissue, tissue_flat):
            prefetcher.begin_sequence()
            prefetcher.observe(observations[0])
            prefetcher.begin_sequence()
            prefetcher.begin_sequence()
            assert isinstance(prefetcher.plan(), list)

    def test_reuse_across_sequences_is_clean(self, tissue, tissue_flat, observations):
        """Running the same instance twice must give identical plans."""
        for prefetcher in all_prefetchers(tissue, tissue_flat):
            if prefetcher.name.startswith("scout"):
                continue  # scout's internal RNG advances by design (deep picks)
            plans = []
            for _ in range(2):
                prefetcher.begin_sequence()
                for observed in observations[:3]:
                    prefetcher.observe(observed)
                plans.append(prefetcher.plan())
            assert len(plans[0]) == len(plans[1])
            for a, b in zip(plans[0], plans[1]):
                assert np.allclose(a.anchor, b.anchor)
