"""The production-reach check (``tests/reach/``) on synthetic trees.

No entry point runs here: the checker reads planted packages, and the
recorder runs once in a child interpreter over a two-function package.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.workload.figures import FIGURES
from tests.reach import drive
from tests.reach.check import ALLOWLIST, EXEMPT, KINDS, REPO, check, defs

REACH = Path(__file__).resolve().parent / "reach"

#: One module with a def of every shape the checker must see.
PLANTED = '''
import functools


def plain():
    return 1


class Box:
    @property
    def size(self):
        return 2

    @functools.lru_cache(maxsize=None)
    def decorated(self):
        return 3

    def __repr__(self):
        return "Box()"


def outer():
    def nested():
        return 4

    return nested
'''

#: Shape -> the qualified name of the planted def of that shape.
SHAPES = {
    "plain": "plain",
    "property": "Box.size",
    "nested": "outer.nested",
    "decorated": "Box.decorated",
}


def _plant(root: Path) -> list:
    (root / "mod.py").write_text(PLANTED)
    return defs(root)


@pytest.mark.parametrize("shape", SHAPES)
def test_a_never_entered_def_of_every_shape_is_flagged(tmp_path, shape):
    planted = _plant(tmp_path)
    entered = {d.key for d in planted if d.qualname != SHAPES[shape]}
    unlisted, allowed, stale = check(planted, entered, {})
    assert [d.qualname for d in unlisted] == [SHAPES[shape]]
    assert allowed == [] and stale == []


def test_decorated_defs_start_at_their_first_decorator(tmp_path):
    lines = {d.qualname: d.line for d in _plant(tmp_path)}
    source = PLANTED.splitlines()
    assert source[lines["Box.size"] - 1].strip() == "@property"
    assert source[lines["Box.decorated"] - 1].strip().startswith("@functools.lru_cache")


def test_repr_and_str_are_exempt(tmp_path):
    assert EXEMPT == {"__repr__", "__str__"}
    assert "Box.__repr__" not in {d.qualname for d in _plant(tmp_path)}


def test_an_allowlisted_def_is_spared(tmp_path):
    planted = _plant(tmp_path)
    entered = {d.key for d in planted if not d.qualname.startswith("Box.")}
    reason = ("protocol", "planted")
    unlisted, allowed, stale = check(planted, entered, {"mod.py::Box": reason})
    assert unlisted == [] and stale == []
    assert {d.qualname for d in allowed} == {"Box.size", "Box.decorated"}
    unlisted, _, _ = check(planted, entered, {"mod.py::Box.size": reason})
    assert [d.qualname for d in unlisted] == ["Box.decorated"]


def test_an_entry_naming_no_def_is_stale(tmp_path):
    planted = _plant(tmp_path)
    entered = {d.key for d in planted}
    allowlist = {
        "mod.py::plain": ("error", "x"),
        "mod.py::gone": ("error", "y"),
        "other.py::plain": ("error", "z"),
        "mod.py::Box.siz": ("error", "w"),
    }
    _, _, stale = check(planted, entered, allowlist)
    assert stale == ["mod.py::gone", "other.py::plain", "mod.py::Box.siz"]


def test_every_allowlist_entry_resolves_in_the_package():
    assert check(defs(), set(), ALLOWLIST)[2] == []


def test_the_allowlist_is_short_and_each_entry_has_a_kind():
    assert len(ALLOWLIST) <= 20
    package_defs = defs()
    for entry, (kind, reason) in ALLOWLIST.items():
        assert kind in KINDS and reason, entry
        path, _, qualname = entry.partition("::")
        exact = [d for d in package_defs if d.path == path and d.qualname == qualname]
        # Only the cache classes go in whole; every other entry names one def.
        assert exact or qualname in ("ArrayCache", "PrefetchCache", "ShardedCache"), entry


def test_the_driver_sweeps_every_registered_figure():
    assert list(drive.FIGURES) == [str(figure) for figure in FIGURES]


def test_the_driver_runs_every_e2e_workload():
    tree = ast.parse((REPO / "benchmarks" / "e2e" / "e2e_bench.py").read_text())
    (workloads,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WORKLOADS"
    ]
    assert drive.E2E_WORKLOADS == workloads


def test_the_driver_runs_every_direct_benchmark():
    """``test_figures.py`` runs ``sweep --figure``, which the sweeps cover."""
    direct = {p.relative_to(REPO).as_posix() for p in (REPO / "benchmarks").glob("test_*.py")}
    assert set(drive.DIRECT_BENCHMARKS) == direct - {"benchmarks/test_figures.py"}


def test_the_recorder_is_inert_without_a_log():
    env = {**os.environ, "PYTHONPATH": str(REACH)}
    env.pop("REPRO_REACH_LOG", None)
    probe = "import sys, sitecustomize; print(sitecustomize.__file__, sys.gettrace())"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [str(REACH / "sitecustomize.py"), "None"]


def test_the_recorder_logs_what_a_process_and_its_fork_enter(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    planted = _plant(package)
    (package / "__init__.py").write_text("")
    script = textwrap.dedent(
        """
        import os
        from pkg import mod

        mod.Box().size
        if os.fork() == 0:
            mod.Box().decorated()
            os._exit(0)
        os.wait()
        """
    )
    log = tmp_path / "entered.log"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(REACH), str(tmp_path)]),
        "REPRO_REACH_LOG": str(log),
        "REPRO_REACH_ROOT": str(package),
    }
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
    entered = set(log.read_text().splitlines())
    unlisted, _, _ = check(planted, entered, {})
    assert sorted(d.qualname for d in unlisted) == ["outer", "outer.nested", "plain"]
