"""Multi-client navigation workloads for the serving layer.

The paper evaluates SCOUT behind a *single* interactive client; the
serving layer (DESIGN.md §6) models many concurrent users contending
for one shared prefetch cache and disk.  This module synthesizes those
users: each client is one guided navigation session
(:class:`ClientWorkload` = a client id, its query sequence, and the
scheduler tick at which it joins), generated deterministically from one
seed so serving runs are reproducible cell values like everything else
in the sweep engine.

Two contention regimes:

* ``independent`` -- every client walks its own region of the dataset
  (independent child RNGs, exactly the sequences a single-client
  experiment would generate).  Clients compete for cache *capacity* but
  rarely for the same pages;
* ``hotspot`` -- clients draw their session from a small pool of hot
  walks with Zipf-skewed popularity, so many clients navigate the same
  region.  This is the cross-client sharing regime: a popular region's
  pages are prefetched once and hit by every follower, while unpopular
  sessions suffer eviction pressure from the hot set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datagen.dataset import Dataset
from repro.workload.sequence import QuerySequence, generate_sequences

__all__ = ["ClientWorkload", "multiclient_sessions", "zipf_weights"]

#: Zipf exponent of hot-walk popularity in ``hotspot`` mode.
HOTSPOT_ZIPF_S = 1.2


@dataclass(frozen=True)
class ClientWorkload:
    """One client's navigation session in a serving run.

    ``start_tick`` staggers session arrival: the serving scheduler
    leaves the client idle until that many ticks have elapsed,
    modelling users joining over time instead of all at once.
    """

    client_id: int
    sequence: QuerySequence
    start_tick: int = 0


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Zipf popularity over ``n`` ranks: ``w_k ∝ 1/(k+1)^s``, normalized."""
    if n < 1:
        raise ValueError("need at least one rank")
    if s < 0:
        raise ValueError("zipf exponent must be non-negative")
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return weights / weights.sum()


def multiclient_sessions(
    dataset: Dataset,
    n_clients: int,
    seed: int,
    n_queries: int,
    volume: float,
    gap: float = 0.0,
    aspect: str = "cube",
    window_ratio: float = 1.0,
    mode: str = "independent",
    stagger: int = 0,
    hot_pool: int = 4,
) -> list[ClientWorkload]:
    """Generate ``n_clients`` staggered navigation sessions.

    ``independent`` mode generates exactly the sequences
    :func:`~repro.workload.sequence.generate_sequences` would for a
    single-client experiment (one deterministic child RNG per client),
    so a one-client serving run reproduces the classic engine
    bit-for-bit.  ``hotspot`` mode instead builds a pool of ``hot_pool``
    walks and assigns each client one of them with
    Zipf(:data:`HOTSPOT_ZIPF_S`) popularity -- clients sharing a walk
    navigate the same hot region.  Client ``i`` joins at tick
    ``i * stagger``.
    """
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if stagger < 0:
        raise ValueError("stagger must be non-negative")
    if mode not in ("independent", "hotspot"):
        raise ValueError(f"unknown mode {mode!r} (expected 'independent' or 'hotspot')")
    if hot_pool < 1:
        raise ValueError("hot_pool must be >= 1")

    def sequences(count: int) -> list[QuerySequence]:
        return generate_sequences(
            dataset,
            n_sequences=count,
            seed=seed,
            n_queries=n_queries,
            volume=volume,
            gap=gap,
            aspect=aspect,
            window_ratio=window_ratio,
        )

    if mode == "independent":
        assigned = sequences(n_clients)
    else:
        pool = sequences(min(hot_pool, n_clients))
        # Popularity assignment draws from its own deterministic stream
        # (offset seed) so it can never perturb sequence generation.
        assign_rng = np.random.default_rng([seed, len(pool), n_clients])
        weights = zipf_weights(len(pool), HOTSPOT_ZIPF_S)
        ranks = assign_rng.choice(len(pool), size=n_clients, p=weights)
        assigned = [pool[int(rank)] for rank in ranks]

    return [
        ClientWorkload(client_id=i, sequence=sequence, start_tick=i * stagger)
        for i, sequence in enumerate(assigned)
    ]
