"""Reproduction of SCOUT: Prefetching for Latent Structure Following Queries.

SCOUT (Tauheed et al., PVLDB 5(11), 2012) is a structure-aware prefetcher
for *guided spatial query sequences*: interactive sequences of 3D range
queries that follow a latent guiding structure (a neuron fiber, an artery,
a road).  Instead of extrapolating past query *positions*, SCOUT inspects
past query *content*: it summarizes the spatial objects of each result as
an approximate proximity graph, prunes the set of candidate structures the
user may be following across the sequence, and prefetches along the
extrapolated exit locations of the surviving candidates.

This package contains a complete, self-contained reproduction:

- :mod:`repro.geometry` -- AABB/segment/frustum/Hilbert primitives.
- :mod:`repro.storage` -- simulated page-based disk and LRU prefetch cache.
- :mod:`repro.index` -- STR bulk-loaded R-tree, and FLAT as SCOUT-OPT
  pairs with it (its STR page layout).
- :mod:`repro.graph` -- grid-hashing proximity-graph construction and
  region-restricted traversal.
- :mod:`repro.datagen` -- synthetic neuron tissue, arterial tree, lung
  airway mesh and road network generators with ground-truth structure.
- :mod:`repro.workload` -- guided query sequence generation and the
  paper's microbenchmark registry (Figure 10).
- :mod:`repro.core` -- the SCOUT and SCOUT-OPT prefetchers.
- :mod:`repro.baselines` -- Straight Line, Polynomial, EWMA, Velocity
  and Hilbert prefetching baselines.
- :mod:`repro.sim` -- the execution simulator implementing the paper's
  Figure-2 timeline, plus metrics and experiment helpers.

Quickstart::

    from repro.quickstart import quick_experiment

    result = quick_experiment(prefetcher="scout", seed=7)
    print(result.cache_hit_rate, result.speedup)
"""

from repro.version import __version__

__all__ = ["__version__"]
