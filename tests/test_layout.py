"""Package layout: one timing harness, no oracle in the package, no
setting that only tests set, and no boolean row reduction.

``benchmarks/e2e`` is the only code that times this package; the
``repro.perf`` harness and the pytest-benchmark fixture are retired and
must not come back through an import.  The scalar references the array
paths are proven against live in ``tests/oracles/``, and API that only
tests called is gone: no ``src/repro`` module defines, imports or
mentions any of those names.  ``ArrayCache`` is the one oracle left in
the package (see :data:`KEPT_ORACLES`).  A keyword that no sweep, CLI
flag, example, benchmark or daemon path passes is a constant of the
module that reads it (DESIGN.md §2).  A box test and-s the three
per-axis columns of an ``(n, 3)`` bool instead of reducing it with
``all`` / ``any`` over axis 1, numpy's slow path (DESIGN.md §11, "Row
gathers and box tests").
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

#: Every name that left the package: the scalar oracles, now in
#: ``tests/oracles/`` (``slab_clip`` and ``object_crossings`` under a
#: public name there), and the API only tests called.  No ``src/repro``
#: module may define one (function, class or method) or name one.
_GONE = """
    oracles scalar_ref ScalarSTRTree ScalarFlatIndex pages_for_region_scalar
    region_crossings_reference _object_crossings object_crossings build_graph_brute_force
    segment_segment_distance cells_of_segment clip_segment_to_aabb _slab_clip slab_clip
    segment_aabb_intersects OraclePrefetcher bind_sequence
    Segment point_segment_distance flat_id reset_stats aabbs_intersect_arrays
"""
GONE_FROM_PACKAGE = tuple(_GONE.split())
#: The one oracle left in the package, by its home: the e2e tracer
#: (``benchmarks/e2e/e2e_trace.py``) patches it by name.
KEPT_ORACLES = {"ArrayCache": "storage/cache.py"}


def _names(node: ast.AST) -> list[str]:
    """The dotted names a node defines, imports or mentions (strings do not count)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return [f"{module}.{alias.name}" for alias in node.names]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _oracle_names(tree: ast.AST, rel: str) -> list[str]:
    """``rel:line names X`` for every gone or misplaced oracle name in a module."""
    banned = set(GONE_FROM_PACKAGE) | {name for name, home in KEPT_ORACLES.items() if home != rel}
    return [
        f"{rel}:{node.lineno} names {oracle}"
        for node in ast.walk(tree)
        for name in _names(node)
        for oracle in sorted(banned & set(name.split(".")))
    ]


def test_package_imports_no_retired_harness_and_names_no_oracle():
    root = Path(repro.__file__).parent
    retired, oracles = [], []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        oracles += _oracle_names(tree, rel)
        for node in ast.walk(tree):
            for name in _names(node):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name == module or name.startswith(module + ".") for module in RETIRED_MODULES
                ):
                    retired.append(f"{rel}:{node.lineno} imports {name}")
    assert not retired, retired
    assert not oracles, oracles


#: A minimal module per way of naming an oracle, by the name the rule must flag.
COUNTEREXAMPLES = {
    "region_crossings_reference": "def region_crossings_reference(dataset, ids, region): ...",
    "reset_stats": "class Tree:\n    def reset_stats(self): ...",
    "ScalarSTRTree": "from repro.index.scalar_ref import ScalarSTRTree",
    "flat_id": "grid.flat_id((0, 0, 0))",
    "ArrayCache": "from repro.storage.cache import ArrayCache",
}


@pytest.mark.parametrize("flagged", sorted(COUNTEREXAMPLES))
def test_the_oracle_rule_fires(flagged):
    found = _oracle_names(ast.parse(COUNTEREXAMPLES[flagged]), "sim/engine.py")
    assert any(entry.endswith(f" names {flagged}") for entry in found), found


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


def _row_reductions(tree: ast.AST, rel: str) -> list[str]:
    """``rel:line reduces rows`` for every ``all`` / ``any`` over axis 1 (or -1).

    The axis counts as a keyword, or positionally: first argument of a
    method (``ok.all(1)``), second of a function (``np.any(ok, 1)``).
    """
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and not (
            isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy")
        ):
            name, position = func.attr, 0
        else:
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            position = 1
        if name not in ("all", "any"):
            continue
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"]
        axes += node.args[position : position + 1]
        for axis in axes:
            try:
                value = ast.literal_eval(axis)
            except ValueError:
                continue
            if value in (1, -1):
                found.append(f"{rel}:{node.lineno} reduces rows with {name}")
    return found


def test_package_has_no_boolean_row_reduction():
    root = Path(repro.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        found += _row_reductions(ast.parse(path.read_text()), path.relative_to(root).as_posix())
    assert not found, found


@pytest.mark.parametrize(
    "source",
    [
        "mask = np.all((lo <= qhi) & (hi >= qlo), axis=1)",
        "ok = ~bad.any(axis=1)",
        "hit = ((lo <= qhi) & (hi >= qlo)).all(axis=-1)",
        "ok = np.any(bad, 1)",
        "ok = bad.all(1)",
        "from numpy import all\nok = all(bad, axis=1)",
    ],
)
def test_the_row_reduction_rule_fires(source):
    assert _row_reductions(ast.parse(source), "index/rtree.py")


@pytest.mark.parametrize(
    "source",
    [
        "ok = bad.all()",
        "ok = np.all(bad, axis=0)",
        "ok = all(x > 0 for x in xs)",
        "ok = any([a, b])",
        "t0 = spans.max(axis=1)",
    ],
)
def test_the_row_reduction_rule_spares_other_reductions(source):
    assert not _row_reductions(ast.parse(source), "index/rtree.py")
