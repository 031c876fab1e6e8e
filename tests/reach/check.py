"""Reach checks: every ``src/repro`` def some entry point enters, every
line something runs.

The def check: :func:`defs` lists each ``def`` of a package tree (plain
functions, methods, properties, nested and decorated functions) by the
key the recorder in ``sitecustomize.py`` writes, ``path:first-line:name``.
A def no entry point entered (``entered.log``) must be named by
:data:`ALLOWLIST`, whose entries are of three kinds only (:data:`KINDS`);
an entry naming a class covers its methods.  An entry is stale when it
names no def, or when an entry point entered a def it covers: the
allowlist spares only what nothing runs.  ``__repr__`` and ``__str__``
are exempt.

The tracer cross-check: an ``e2e`` entry names one def the benchmark's
tracer (``benchmarks/e2e/e2e_trace.py``) patches (a ``SPAN_POINTS``
method or function) or a ``CAPTURED_CLASSES`` class nothing in the
package constructs.  A name the tracer does not pin is no reason to
keep a def.

The line check: every executable line of the package (a line holding
an instruction other than ``RESUME`` or ``NOP``) must be run by an entry
point or by tier 1 (``entered.log`` or ``tier1.log``).  A line is exempt
if its def is exempt or is an allowlisted def no entry point entered,
or if it sits in a block whose header line carries
``# reach: <kind> <reason>`` with a kind of :data:`KINDS`.  A marker
whose block has no unreached line is stale.

Run after ``drive.py`` has recorded both logs (``drive.py`` runs this too)::

    python -m tests.reach.check

It prints the report, writes it to ``results/reach/never_entered.txt``
and exits 1 on any unlisted never-entered def, stale allowlist entry,
``e2e`` entry the tracer does not pin, unmarked unreached line or stale
marker.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import re
import sys
import tokenize
import types
from dataclasses import dataclass, field
from pathlib import Path

from tests.reach.sitecustomize import executable_lines

REPO = Path(__file__).resolve().parents[2]
PACKAGE = REPO / "src" / "repro"
OUT = REPO / "results" / "reach"
LOG = OUT / "entered.log"
TIER1_LOG = OUT / "tier1.log"
REPORT = OUT / "never_entered.txt"

EXEMPT = frozenset({"__repr__", "__str__"})

#: The three reasons a def may stay unentered.
KINDS = {
    "e2e": "the benchmark's tracer pins it (span point or captured class): ROADMAP item 19",
    "error": "an error path no deterministic driver reaches",
    "protocol": "an abstract protocol method: subclasses override it",
}

_E2E = "benchmarks/e2e/e2e_trace.py"

#: ``path under src/repro::qualified name`` -> (kind, reason).
ALLOWLIST: dict[str, tuple[str, str]] = {
    "storage/cache.py::ArrayCache": (
        "e2e",
        f"{_E2E} patches its ops and captures its instances; nothing in src builds it",
    ),
    "storage/cache.py::PrefetchCache.touch": ("e2e", f"a {_E2E} span point"),
    "storage/cache.py::PrefetchCache.owners_many": ("e2e", f"a {_E2E} span point"),
    "storage/cache.py::PrefetchCache.evicted_many": ("e2e", f"a {_E2E} span point"),
    "storage/sharded.py::ShardedCache.touch": ("e2e", f"a {_E2E} span point"),
    "storage/sharded.py::ShardedCache.insert": ("e2e", f"a {_E2E} span point"),
    "storage/sharded.py::ShardedCache.route": ("e2e", f"a {_E2E} span point"),
    "storage/sharded.py::ShardedCache.contains_many": ("e2e", f"a {_E2E} span point"),
    "storage/sharded.py::ShardedCache.owners_many": ("e2e", f"a {_E2E} span point"),
    "storage/sharded.py::ShardedCache.evicted_many": ("e2e", f"a {_E2E} span point"),
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
}


@dataclass(frozen=True)
class Def:
    """One ``def`` of the package: where it starts and ends, and its dotted name."""

    path: str
    line: int
    name: str
    qualname: str
    end: int

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
                found.append(Def(path, line, child.name, prefix + child.name, child.end_lineno))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def _files(root: Path):
    """``(path under root, source, tree)`` of each ``.py`` file under ``root``."""
    for file in sorted(root.rglob("*.py")):
        source = file.read_text()
        yield file.relative_to(root).as_posix(), source, ast.parse(source, filename=str(file))


def defs(root: Path = PACKAGE) -> list[Def]:
    """Every non-exempt def of the ``.py`` files under ``root``."""
    found = [d for path, _, tree in _files(root) for d in _defs_of(tree, path)]
    return [d for d in found if d.name not in EXEMPT]


def _covers(entry: str, d: Def) -> bool:
    path, _, qualname = entry.partition("::")
    return d.path == path and (d.qualname == qualname or d.qualname.startswith(qualname + "."))


def check(
    all_defs: list[Def], entered: set[str], allowlist: dict[str, tuple[str, str]]
) -> tuple[list[Def], list[Def], list[str]]:
    """``(unlisted, allowed, stale)``: never-entered defs outside / inside the allowlist,
    and allowlist entries that name no def or cover an entered one."""
    never = [d for d in all_defs if d.key not in entered]
    unlisted = [d for d in never if not any(_covers(entry, d) for entry in allowlist)]
    allowed = [d for d in never if d not in unlisted]
    stale = [entry for entry in allowlist if _stale(entry, all_defs, entered)]
    return unlisted, allowed, stale


def _stale(entry: str, all_defs: list[Def], entered: set[str]) -> bool:
    covered = [d for d in all_defs if _covers(entry, d)]
    return not covered or any(d.key in entered for d in covered)


def _tracer() -> types.ModuleType:
    """``benchmarks/e2e/e2e_trace.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("e2e_trace", REPO / _E2E)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_of(module: str, qualname: str) -> str:
    """The allowlist entry naming ``qualname`` of package module ``module``."""
    return f"{module.removeprefix('repro.').replace('.', '/')}.py::{qualname}"


def _constructed(root: Path) -> set[str]:
    """The name of every class or function the package calls, ``X(...)`` or ``m.X(...)``."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for _, _, tree in _files(root)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def untraced(allowlist: dict[str, tuple[str, str]]) -> list[str]:
    """The ``e2e`` entries that name neither a def the tracer patches (a
    ``SPAN_POINTS`` method or function) nor a ``CAPTURED_CLASSES`` class
    nothing in the package constructs."""
    tracer = _tracer()
    pinned = {
        _entry_of(module, f"{cls}.{attr}" if cls else attr)
        for module, cls, attr, _ in tracer.SPAN_POINTS
    }
    called = _constructed(PACKAGE)
    pinned |= {
        _entry_of(module, cls) for module, cls in tracer.CAPTURED_CLASSES if cls not in called
    }
    e2e = [entry for entry, (kind, _) in allowlist.items() if kind == "e2e"]
    return [entry for entry in e2e if entry not in pinned]


MARKER = re.compile(r"#\s*reach:\s*(\S*)\s*(.*)")


@dataclass(frozen=True)
class Marker:
    """One ``# reach: <kind> <reason>`` comment and the lines of the block it heads."""

    path: str
    line: int
    kind: str
    reason: str
    block: range

    def __str__(self) -> str:
        return f"{self.path}:{self.line}  [{self.kind}] {self.reason}"


def _blocks(tree: ast.AST) -> list[tuple[range, range]]:
    """``(header lines, block lines)`` of each block a marker may head: a
    compound statement's body (a def or class whole), an ``except``
    clause, an ``else:`` or a ``finally:``."""
    found = []

    def add(header: int, body: list[ast.stmt], first: int) -> None:
        headed = range(header, max(header, body[0].lineno - 1) + 1)
        found.append((headed, range(first, body[-1].end_lineno + 1)))

    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list) or not hasattr(node, "lineno"):
            continue
        decorators = getattr(node, "decorator_list", [])
        add(node.lineno, body, min([node.lineno] + [d.lineno for d in decorators]))
        before = max(stmt.end_lineno for stmt in body + getattr(node, "handlers", []))
        for name in ("orelse", "finalbody"):
            block = getattr(node, name, [])
            # An ``elif`` heads a block of its own: there is no line between.
            if block and block[0].lineno > before + 1:
                add(before + 1, block, before + 1)
                before = block[-1].end_lineno
    return found


def _markers_of(source: str, tree: ast.AST, path: str) -> list[Marker]:
    blocks = _blocks(tree)
    found = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        match = MARKER.match(token.string) if token.type == tokenize.COMMENT else None
        if match:
            line = token.start[0]
            headed = [block for header, block in blocks if line in header]
            block = min(headed, key=len, default=range(0))
            found.append(Marker(path, line, match[1], match[2].strip(), block))
    return found


def markers(root: Path = PACKAGE) -> list[Marker]:
    """Every ``# reach:`` marker of the ``.py`` files under ``root``."""
    return [m for path, source, tree in _files(root) for m in _markers_of(source, tree, path)]


def _code_lines(code: types.CodeType) -> set[int]:
    lines = executable_lines(code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


@dataclass
class Lines:
    """The line check's findings over one package tree."""

    executable: int = 0
    exempt: int = 0
    #: ``path:line  source`` of each unreached line neither exempt nor marked.
    unreached: list[str] = field(default_factory=list)
    #: Each marker that spares some unreached line -> how many it spares.
    marked: dict[Marker, int] = field(default_factory=dict)
    #: Markers that spare no line: no unreached line in the block they
    #: head, no block headed, or a kind not in :data:`KINDS` or no reason.
    stale: list[Marker] = field(default_factory=list)


def line_check(
    root: Path, reached: set[str], entered: set[str], allowlist: dict[str, tuple[str, str]]
) -> Lines:
    """Every executable line under ``root`` that no ``path:line`` of ``reached`` names."""
    found = Lines()
    for path, source, tree in _files(root):
        executable = _code_lines(compile(source, f"{root}/{path}", "exec"))
        spared = [
            d
            for d in _defs_of(tree, path)
            if d.name in EXEMPT or (d.key not in entered and any(_covers(e, d) for e in allowlist))
        ]
        exempt = {line for line in executable if any(d.line <= line <= d.end for d in spared)}
        missed = {line for line in executable if f"{path}:{line}" not in reached} - exempt
        # An inner block's marker takes its lines before an outer one's.
        for marker in sorted(_markers_of(source, tree, path), key=lambda m: len(m.block)):
            lines = missed.intersection(marker.block) if marker.kind in KINDS else set()
            if lines and marker.reason:
                found.marked[marker] = len(lines)
                missed -= lines
            else:
                found.stale.append(marker)
        text = source.splitlines()
        found.executable += len(executable)
        found.exempt += len(exempt)
        found.unreached += [f"{path}:{line}  {text[line - 1].strip()}" for line in sorted(missed)]
    return found


def report(entered: set[str], reached: set[str]) -> tuple[str, bool]:
    """The def and line report over :data:`ALLOWLIST`, and whether it passes."""
    all_defs = defs()
    unlisted, allowed, stale = check(all_defs, entered, ALLOWLIST)
    unpinned = untraced(ALLOWLIST)
    lines = line_check(PACKAGE, reached, entered, ALLOWLIST)
    n_marked = sum(lines.marked.values())
    n_reached = lines.executable - lines.exempt - n_marked - len(lines.unreached)
    text = [
        f"defs {len(all_defs)}  entered {len(all_defs) - len(unlisted) - len(allowed)}  "
        f"never entered {len(unlisted) + len(allowed)} "
        f"(allowlisted {len(allowed)}, unlisted {len(unlisted)})  stale entries {len(stale)}  "
        f"untraced entries {len(unpinned)}",
        f"lines {lines.executable}  reached {n_reached}  exempt {lines.exempt}  "
        f"marked {n_marked} (markers {len(lines.marked)})  unreached {len(lines.unreached)}  "
        f"stale markers {len(lines.stale)}",
    ]
    text += [f"NEVER ENTERED  {d}" for d in unlisted]
    text += [f"STALE ENTRY    {entry}" for entry in stale]
    text += [f"UNTRACED ENTRY {entry}" for entry in unpinned]
    text += [f"UNREACHED      {line}" for line in lines.unreached]
    text += [f"STALE MARKER   {marker}" for marker in lines.stale]
    text += [
        f"allowed        {d}  [{kind}] {reason}"
        for entry, (kind, reason) in ALLOWLIST.items()
        for d in allowed
        if _covers(entry, d)
    ]
    text += [f"marked         {marker}  ({n} lines)" for marker, n in lines.marked.items()]
    ok = not (unlisted or stale or unpinned or lines.unreached or lines.stale)
    return "\n".join(text) + "\n", ok


def main() -> int:
    entered = set(LOG.read_text().splitlines())
    text, ok = report(entered, entered | set(TIER1_LOG.read_text().splitlines()))
    REPORT.write_text(text)
    sys.stdout.write(text)
    print(f"reach: {'PASS' if ok else 'FAIL'} (report: {REPORT.relative_to(REPO)})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
