"""Shared fixtures: small, session-scoped datasets and indexes.

Dataset generation and index bulk-loading dominate test runtime, so the
suite shares one small instance of each dataset across all test modules.
Tests must not mutate them.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.datagen import (
    make_arterial_tree,
    make_lung_airways,
    make_neuron_tissue,
    make_road_network,
)
from repro.index import FlatIndex, STRTree


@pytest.fixture(scope="session")
def tissue():
    """A small neuron tissue (enough structure for guided sequences)."""
    return make_neuron_tissue(n_neurons=12, seed=11)


@pytest.fixture(scope="session")
def arterial():
    return make_arterial_tree(seed=5)


@pytest.fixture(scope="session")
def lung():
    return make_lung_airways(seed=5, max_depth=3)


@pytest.fixture(scope="session")
def roads():
    return make_road_network(grid_size=8, seed=5)


@pytest.fixture(scope="session")
def tissue_rtree(tissue):
    return STRTree(tissue, fanout=16)


@pytest.fixture(scope="session")
def tissue_flat(tissue):
    return FlatIndex(tissue, fanout=16)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(params=["fork", "forkserver"])
def start_method(request):
    """The interpreter's default start method, set for one pooled sweep
    case: the runner must not depend on it (``forkserver`` is Linux's
    default from Python 3.14)."""
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method(request.param, force=True)
    yield request.param
    multiprocessing.set_start_method(previous, force=True)
