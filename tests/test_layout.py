"""Package layout: one timing harness, and oracles that nothing calls.

``benchmarks/e2e`` is the only code that times this package; the
``repro.perf`` harness and the pytest-benchmark fixture are retired and
must not come back through an import.  The scalar reference
implementations exist so tests can compare the vectorized paths against
them -- production code never reaches for one.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

RETIRED_MODULES = ("repro.perf", "pytest_benchmark")
ORACLES = {"scalar_ref", "ScalarFlatIndex", "ScalarSTRTree", "region_crossings_reference"}
#: Where an oracle is defined or re-exported for the tests.
ORACLE_HOMES = {"index/scalar_ref.py", "index/__init__.py", "graph/traversal.py"}


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
    retired, naming_oracles = [], set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            for name in _names(node):
                if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                    name == module or name.startswith(module + ".") for module in RETIRED_MODULES
                ):
                    retired.append(f"{rel}:{node.lineno} imports {name}")
                if ORACLES.intersection(name.split(".")):
                    naming_oracles.add(rel)
    assert not retired, retired
    assert "index/__init__.py" in naming_oracles  # the walk does see names
    assert naming_oracles <= ORACLE_HOMES, sorted(naming_oracles - ORACLE_HOMES)
