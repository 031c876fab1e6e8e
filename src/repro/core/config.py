"""SCOUT configuration knobs.

The two settings a sweep varies: the grid resolution (Fig 13e; the
default follows §4.2's "use a fine resolution and work with sparser
approximate graph representation") and the deep-vs-broad strategy
(§5.2; broad is the defensive default).  Everything else SCOUT reads
is a constant of the module that reads it: the prefetch-location limit
(``core/strategies.py``), the matching distance (``core/candidates.py``),
the gap I/O budget (``core/scout_opt.py``) and the rng seed
(``core/scout.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ScoutConfig", "SIM_SECONDS_PER_BUILD_UNIT", "SIM_SECONDS_PER_TRAVERSAL_UNIT"]

#: Simulated CPU seconds per graph-building work unit (cell insertion or
#: pairwise connection).  Calibrated so graph building lands near the
#: ~15 % share of query response time reported in Figure 14.
SIM_SECONDS_PER_BUILD_UNIT = 4.0e-6

#: Simulated CPU seconds per traversal step (vertex or edge visit);
#: prediction is "up to 6 %" of response time in Figure 14.
SIM_SECONDS_PER_TRAVERSAL_UNIT = 2.0e-6


@dataclass(frozen=True)
class ScoutConfig:
    """The SCOUT parameters a sweep varies."""

    #: Total grid cells per query region for grid hashing (Fig 13e).
    grid_resolution: int = 4096

    #: ``"broad"`` (§5.2.2, default) or ``"deep"`` (§5.2.1).
    strategy: str = "broad"

    def __post_init__(self) -> None:
        if self.grid_resolution < 1:
            raise ValueError("grid_resolution must be >= 1")
        if self.strategy not in ("broad", "deep"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
