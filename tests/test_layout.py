"""Package layout: one timing harness, and oracles that nothing calls.

``benchmarks/e2e`` is the only code that times this package; the
``repro.perf`` harness and the pytest-benchmark fixture are retired and
must not come back through an import.  The scalar reference
implementations exist so tests can compare the vectorized paths against
them -- production code never reaches for one.  ``ArrayCache`` is the
same kind of thing for the dict cache every driver builds: the second
implementation the differential suites compare it with.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

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
