"""Package layout: one timing harness, oracles that nothing calls, and
no setting that only tests set.

``benchmarks/e2e`` is the only code that times this package; the
``repro.perf`` harness and the pytest-benchmark fixture are retired and
must not come back through an import.  The scalar reference
implementations exist so tests can compare the vectorized paths against
them -- production code never reaches for one.  ``ArrayCache`` is the
same kind of thing for the dict cache every driver builds: the second
implementation the differential suites compare it with.  A keyword that
no sweep, CLI flag, example, benchmark or daemon path passes is a
constant of the module that reads it (DESIGN.md §2).
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.baselines import HilbertPrefetcher, VelocityPrefetcher
from repro.core import CandidateTracker, ScoutConfig, kmeans
from repro.datagen import (
    make_arterial_tree,
    make_lung_airways,
    make_neuron_tissue,
    make_road_network,
)
from repro.geometry import Frustum
from repro.serve.loadgen import bursty_arrivals, run_loadgen
from repro.sim.engine import QuerySession

RETIRED_MODULES = ("repro.perf", "pytest_benchmark")
_SCALAR_HOMES = {"index/scalar_ref.py", "index/__init__.py", "graph/traversal.py"}
#: Oracle -> the modules that define it or re-export it for the tests.
ORACLES = {
    "scalar_ref": _SCALAR_HOMES,
    "ScalarFlatIndex": _SCALAR_HOMES,
    "ScalarSTRTree": _SCALAR_HOMES,
    "region_crossings_reference": _SCALAR_HOMES,
    "ArrayCache": {"storage/cache.py"},
}


def _names(node: ast.AST) -> list[str]:
    """The dotted names a node imports or mentions (strings do not count)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [f"{module}.{alias.name}" for alias in node.names]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def test_package_imports_no_retired_harness_and_names_no_oracle():
    root = Path(repro.__file__).parent
    retired, strays, naming_oracles = [], [], set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            for name in _names(node):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name == module or name.startswith(module + ".") for module in RETIRED_MODULES
                ):
                    retired.append(f"{rel}:{node.lineno} imports {name}")
                for oracle in ORACLES.keys() & name.split("."):
                    naming_oracles.add(rel)
                    if rel not in ORACLES[oracle]:
                        strays.append(f"{rel}:{node.lineno} names {oracle}")
    assert not retired, retired
    assert "index/__init__.py" in naming_oracles  # the walk does see names
    assert not strays, strays


#: Keywords only tests ever passed, by the callable that took them.
REMOVED_KEYWORDS = {
    ScoutConfig: (
        "max_prefetch_locations",
        "match_distance_factor",
        "reset_on_no_match",
        "charge_prediction_cost",
        "gap_io_budget_fraction",
        "rng_seed",
    ),
    CandidateTracker: ("config",),
    make_neuron_tissue: ("config", "target_density"),
    make_arterial_tree: ("config", "n_trees", "extent"),
    make_lung_airways: ("config",),
    make_road_network: ("spacing", "drop_probability", "n_highways", "segments_per_road"),
    HilbertPrefetcher: ("cells_per_axis", "n_prefetch_cells"),
    VelocityPrefetcher: ("window",),
    kmeans: ("max_iterations",),
    Frustum.from_volume: ("taper",),
    bursty_arrivals: ("on_mean_s", "off_mean_s"),
    run_loadgen: ("connect_timeout",),
    QuerySession.step_query: ("result",),
}


@pytest.mark.parametrize(
    "target, keyword",
    [
        pytest.param(target, keyword, id=f"{target.__qualname__}-{keyword}")
        for target, keywords in REMOVED_KEYWORDS.items()
        for keyword in keywords
    ],
)
def test_setting_only_tests_set_is_gone(target, keyword):
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        inspect.signature(target).bind_partial(**{keyword: None})
