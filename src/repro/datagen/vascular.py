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


def make_arterial_tree(
    seed: int = 0,
    config: BranchingConfig = ARTERIAL_CONFIG,
    n_trees: int = 1,
    extent: float = 400.0,
    max_depth: int | None = None,
) -> Dataset:
    """Generate one (or a few) smooth arterial trees.

    Each tree is one ground-truth *structure*; the branches within it are
    the candidate guiding structures SCOUT must disambiguate.
    ``max_depth`` overrides the config's bifurcation depth -- a scalar
    knob, so declarative sweep specs can size the tree without carrying
    a :class:`BranchingConfig`.
    """
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if max_depth is not None:
        config = replace(config, max_depth=int(max_depth))
    rng = np.random.default_rng(seed)

    def place_root(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        root = rng.uniform(0.0, extent, size=3) if n_trees > 1 else np.full(3, extent / 2.0)
        return root, rng.normal(size=3)

    trees, tree_of_object = grow_forest(rng, n_trees, place_root, config)
    return Dataset(
        name="arterial-tree",
        p0=trees.p0,
        p1=trees.p1,
        radius=trees.radius,
        structure_id=tree_of_object,
        branch_id=trees.branch_of_object,
        nav=NavigationGraph(trees.nav_nodes, trees.nav_edges),
    )
