"""Production reach check: every ``src/repro`` def some entry point enters.

:func:`defs` lists each ``def`` of a package tree (plain functions,
methods, properties, nested and decorated functions) by the key the
recorder in ``sitecustomize.py`` writes, ``path:first-line:name``.  A
def no entry point entered must be named by :data:`ALLOWLIST`, whose
entries are of four kinds only (:data:`KINDS`); an entry naming a class
covers its methods.  An entry that names no def is stale.  ``__repr__``
and ``__str__`` are exempt.

Run after ``drive.py`` has recorded a log (``drive.py`` runs this too)::

    python -m tests.reach.check

It prints the never-entered report, writes it to
``results/reach/never_entered.txt`` and exits 1 on any unlisted
never-entered def or stale allowlist entry.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"
OUT = REPO / "results" / "reach"
LOG = OUT / "entered.log"
REPORT = OUT / "never_entered.txt"

EXEMPT = frozenset({"__repr__", "__str__"})

#: The four reasons a def may stay unentered.
KINDS = {
    "e2e": "benchmarks/e2e names it (patch point or import): goes with ROADMAP item 5a",
    "error": "an error path no deterministic driver reaches",
    "protocol": "an abstract protocol method: subclasses override it",
    "fault-kind": "a runner fault-injection prefetcher kind pool workers must import",
}

_E2E = "benchmarks/e2e/e2e_trace.py"

#: ``path under src/repro::qualified name`` -> (kind, reason).
ALLOWLIST: dict[str, tuple[str, str]] = {
    "storage/cache.py::ArrayCache": (
        "e2e",
        f"{_E2E} patches its ops and captures its instances; nothing in src builds it",
    ),
    "storage/cache.py::_as_array": ("e2e", "ArrayCache's input normalizer, used by it alone"),
    "storage/cache.py::PrefetchCache": (
        "e2e",
        f"scalar touch / insert are {_E2E} span points; the inspection ops are the "
        "differential suites' surface against ArrayCache",
    ),
    "storage/sharded.py::ShardedCache": (
        "e2e",
        f"scalar touch / insert / route are {_E2E} span points; the inspection ops "
        "are the differential suites' surface against ArrayCache",
    ),
    "baselines/extrapolation.py::VelocityPrefetcher.plan": ("e2e", f"a {_E2E} span point"),
    "graph/traversal.py::region_crossings": ("e2e", f"a {_E2E} span point"),
    "sim/engine.py::QuerySession.step_query_capture": ("e2e", f"a {_E2E} span point"),
    "storage/tiered.py::TieredStore.recover_read": ("e2e", f"a {_E2E} span point"),
    "serve/latency.py::LatencyRecorder.count_error": (
        "error",
        "a failed reply: the daemon's guard against a session bug, loadgen's error reply",
    ),
    "baselines/base.py::Prefetcher.observe": ("protocol", "every prefetcher overrides it"),
    "baselines/base.py::Prefetcher.plan": ("protocol", "every prefetcher overrides it"),
    "index/base.py::SpatialIndex._build": ("protocol", "STRTree overrides it"),
    "index/base.py::SpatialIndex.pages_for_region": ("protocol", "STRTree overrides it"),
    "storage/faults.py::_build_sleep_prefetcher": ("fault-kind", "runner kind _sleep"),
    "storage/faults.py::_build_fail_prefetcher": ("fault-kind", "runner kind _fail"),
    "storage/faults.py::_build_exit_prefetcher": ("fault-kind", "runner kind _exit"),
}


@dataclass(frozen=True)
class Def:
    """One ``def`` of the package: where it starts, and its dotted name."""

    path: str
    line: int
    name: str
    qualname: str

    @property
    def key(self) -> str:
        """What the recorder writes when the def's code object is entered."""
        return f"{self.path}:{self.line}:{self.name}"

    def __str__(self) -> str:
        return f"{self.path}:{self.line}  {self.qualname}"


def _defs_of(tree: ast.AST, path: str) -> list[Def]:
    found: list[Def] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A decorated function's code starts at its first decorator.
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found.append(Def(path, line, child.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def defs(root: Path = PACKAGE) -> list[Def]:
    """Every non-exempt def of the ``.py`` files under ``root``."""
    found = []
    for file in sorted(root.rglob("*.py")):
        path = file.relative_to(root).as_posix()
        found += _defs_of(ast.parse(file.read_text(), filename=str(file)), path)
    return [d for d in found if d.name not in EXEMPT]


def _covers(entry: str, d: Def) -> bool:
    path, _, qualname = entry.partition("::")
    return d.path == path and (d.qualname == qualname or d.qualname.startswith(qualname + "."))


def check(
    all_defs: list[Def], entered: set[str], allowlist: dict[str, tuple[str, str]]
) -> tuple[list[Def], list[Def], list[str]]:
    """``(unlisted, allowed, stale)``: never-entered defs outside / inside the allowlist,
    and allowlist entries that name no def."""
    never = [d for d in all_defs if d.key not in entered]
    unlisted = [d for d in never if not any(_covers(entry, d) for entry in allowlist)]
    allowed = [d for d in never if d not in unlisted]
    stale = [entry for entry in allowlist if not any(_covers(entry, d) for d in all_defs)]
    return unlisted, allowed, stale


def report(all_defs: list[Def], entered: set[str]) -> tuple[str, bool]:
    """The never-entered report over :data:`ALLOWLIST`, and whether it passes."""
    unlisted, allowed, stale = check(all_defs, entered, ALLOWLIST)
    lines = [
        f"defs {len(all_defs)}  entered {len(all_defs) - len(unlisted) - len(allowed)}  "
        f"never entered {len(unlisted) + len(allowed)} "
        f"(allowlisted {len(allowed)}, unlisted {len(unlisted)})  stale entries {len(stale)}"
    ]
    lines += [f"NEVER ENTERED  {d}" for d in unlisted]
    lines += [f"STALE ENTRY    {entry}" for entry in stale]
    lines += [
        f"allowed        {d}  [{kind}] {reason}"
        for entry, (kind, reason) in ALLOWLIST.items()
        for d in allowed
        if _covers(entry, d)
    ]
    return "\n".join(lines) + "\n", not unlisted and not stale


def main() -> int:
    entered = set(LOG.read_text().splitlines())
    text, ok = report(defs(), entered)
    REPORT.write_text(text)
    sys.stdout.write(text)
    print(f"reach: {'PASS' if ok else 'FAIL'} (report: {REPORT.relative_to(REPO)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
