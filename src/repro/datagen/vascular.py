"""Synthetic arterial tree.

Stand-in for the pig-heart arterial tree [Grinberg et al.] used in §8.4
(2.1M cylinders, 154 MB).  Arteries are *smooth*: long branches with very
low angular jitter.  That smoothness is the property behind the paper's
honest negative result (Fig 17a: EWMA reaches 96 % on small queries and
beats SCOUT's 90 %), so the generator keeps jitter an explicit knob.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.datagen.branching import BranchingConfig, grow_forest
from repro.datagen.dataset import Dataset, NavigationGraph

__all__ = ["make_arterial_tree", "ARTERIAL_CONFIG"]

#: Side (µm) of the box the tree's root sits at the center of.
ARTERIAL_EXTENT = 400.0

#: Smooth, gently-curving branches: one main stem, deep bifurcation
#: cascade, tiny per-step jitter.
ARTERIAL_CONFIG = BranchingConfig(
    n_stems=1,
    max_depth=6,
    steps_per_branch=(16, 28),
    step_length=5.0,
    direction_jitter=0.06,
    bifurcation_angle=0.55,
    radius_root=3.0,
    radius_decay=0.78,
)


def make_arterial_tree(seed: int = 0, max_depth: int | None = None) -> Dataset:
    """Generate one smooth arterial tree.

    The tree is the one ground-truth *structure*; its branches are the
    candidate guiding structures SCOUT must disambiguate.  ``max_depth``
    overrides :data:`ARTERIAL_CONFIG`'s bifurcation depth -- a scalar
    knob, so declarative sweep specs can size the tree.
    """
    config = ARTERIAL_CONFIG
    if max_depth is not None:
        config = replace(config, max_depth=int(max_depth))
    rng = np.random.default_rng(seed)

    def place_root(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return np.full(3, ARTERIAL_EXTENT / 2.0), rng.normal(size=3)

    trees, tree_of_object = grow_forest(rng, 1, place_root, config)
    return Dataset(
        name="arterial-tree",
        p0=trees.p0,
        p1=trees.p1,
        radius=trees.radius,
        structure_id=tree_of_object,
        branch_id=trees.branch_of_object,
        nav=NavigationGraph(trees.nav_nodes, trees.nav_edges),
    )
