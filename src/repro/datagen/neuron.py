"""Synthetic brain-tissue model.

Stand-in for the Blue Brain Project circuit used in §7: a box of tissue
filled with neurons, each modeled as a few hundred 3D cylinders forming
a soma with branches that extend and bifurcate several times (§3.1).
Neuron fibers are deliberately tortuous (high per-step jitter) -- that
tortuosity is why position-extrapolation baselines stall at <45 % hit
rate in the paper's Figure 3.

The generated tissue is rescaled to the paper's effective object density
so that paper-quoted absolute volumes (80,000 µm³ queries, 25 µm gaps)
produce paper-like result sizes.
"""

from __future__ import annotations

import numpy as np

from repro.datagen.branching import BranchingConfig, grow_forest
from repro.datagen.dataset import Dataset, NavigationGraph

__all__ = ["make_neuron_tissue", "NEURON_TISSUE_DENSITY"]

#: Objects per µm³ of tissue.  Chosen so a paper-sized query (80,000 µm³)
#: returns on the order of a hundred objects -- scaled down from the
#: paper's 450M-object tissue but in the same pages-per-query regime.
NEURON_TISSUE_DENSITY = 0.0012

#: Morphology parameters of one synthetic neuron, in µm.  Fibers are
#: long (a branch spans ~225 µm, a root-to-leaf path ~1 mm) so a
#: 25-query sequence can follow a fiber without retracing it, while the
#: per-step jitter plus occasional sharp kinks decorrelate the direction
#: within about one side of an 80,000 µm³ query -- the paper's regime,
#: where straight-line extrapolation works briefly and then breaks
#: (Fig 3).
NEURON_CONFIG = BranchingConfig(
    n_stems=2,
    max_depth=3,
    steps_per_branch=(35, 55),
    step_length=5.0,
    direction_jitter=0.30,
    bifurcation_angle=1.0,
    radius_root=1.0,
    radius_decay=0.82,
    kink_probability=0.18,
    kink_angle=1.0,
)


def make_neuron_tissue(
    n_neurons: int = 60,
    seed: int = 0,
    extent: float | None = None,
) -> Dataset:
    """Generate a tissue box of ``n_neurons`` synthetic neurons.

    Somata are placed uniformly in a cube; each neuron is an independent
    branching tree contributing ~800 cylinders (:data:`NEURON_CONFIG`).
    When ``extent`` is ``None`` the soma box is sized so the resulting
    tissue has approximately :data:`NEURON_TISSUE_DENSITY` objects per
    µm³, making the paper's absolute query volumes (e.g. 80,000 µm³)
    directly meaningful.  Pass an explicit ``extent`` to vary density at
    fixed volume instead (the Fig 13b sweep).
    """
    if n_neurons < 1:
        raise ValueError("n_neurons must be >= 1")
    rng = np.random.default_rng(seed)

    config = NEURON_CONFIG
    if extent is None:
        expected_branches = config.n_stems * (2 ** (config.max_depth + 1) - 1)
        expected_steps = sum(config.steps_per_branch) / 2.0
        expected_objects = n_neurons * expected_branches * expected_steps
        extent = (expected_objects / NEURON_TISSUE_DENSITY) ** (1.0 / 3.0)

    def place_soma(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        soma = rng.uniform(0.0, extent, size=3)
        return soma, rng.normal(size=3)

    tissue, neuron_of_object = grow_forest(rng, n_neurons, place_soma, config)
    return Dataset(
        name="neuron-tissue",
        p0=tissue.p0,
        p1=tissue.p1,
        radius=tissue.radius,
        structure_id=neuron_of_object,
        branch_id=tissue.branch_of_object,
        nav=NavigationGraph(tissue.nav_nodes, tissue.nav_edges),
    )
