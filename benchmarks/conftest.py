"""Shared fixtures for the direct figure benchmarks (Figs 15, 16, §8.2).

The figures a stored sweep cell can answer are regenerated and checked
through the ``Figure`` registry (``test_figures.py``); the files that
remain direct read what a cell does not carry, and share one
session-scoped tissue because dataset generation and FLAT preprocessing
dominate their setup time.
"""

from __future__ import annotations

import pytest

from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex


@pytest.fixture(scope="session")
def tissue():
    return make_neuron_tissue(n_neurons=60, seed=7)


@pytest.fixture(scope="session")
def tissue_index(tissue):
    # 16-object pages, as in every sweep grid (see repro.workload.sweeps.FLAT_INDEX).
    return FlatIndex(tissue, fanout=16)
