"""The reach checks (``tests/reach/``) on synthetic trees.

No entry point runs here: the checker reads planted packages, and the
recorder runs in child interpreters over small planted packages.
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
from tests.reach.check import (
    ALLOWLIST,
    EXEMPT,
    KINDS,
    REPO,
    check,
    defs,
    line_check,
    markers,
    untraced,
)

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
    allowlist = {
        "mod.py::plain": ("error", "x"),
        "mod.py::gone": ("error", "y"),
        "other.py::plain": ("error", "z"),
        "mod.py::Box.siz": ("error", "w"),
    }
    _, _, stale = check(planted, set(), allowlist)
    assert stale == ["mod.py::gone", "other.py::plain", "mod.py::Box.siz"]


def test_an_entry_covering_an_entered_def_is_stale(tmp_path):
    planted = _plant(tmp_path)
    entered = {d.key for d in planted if d.qualname in ("plain", "Box.size")}
    reason = ("error", "planted")
    allowlist = {"mod.py::plain": reason, "mod.py::Box": reason, "mod.py::outer.nested": reason}
    unlisted, allowed, stale = check(planted, entered, allowlist)
    assert stale == ["mod.py::plain", "mod.py::Box"]
    assert [d.qualname for d in unlisted] == ["outer"]


def test_an_entry_for_a_def_an_entry_point_entered_is_stale():
    """The whole-class ``PrefetchCache`` entry this allowlist once held
    fails as soon as an entry point enters any of its methods."""
    package_defs = defs()
    (insert,) = [d for d in package_defs if d.qualname == "PrefetchCache.insert"]
    reason = ("e2e", "a class whole")
    allowlist = {
        **ALLOWLIST,
        "storage/cache.py::PrefetchCache": reason,
        "storage/cache.py::PrefetchCache.insert": reason,
    }
    stale = check(package_defs, {insert.key}, allowlist)[2]
    assert stale == ["storage/cache.py::PrefetchCache", "storage/cache.py::PrefetchCache.insert"]


def test_every_allowlist_entry_resolves_in_the_package():
    assert check(defs(), set(), ALLOWLIST)[2] == []


def test_the_allowlist_is_short_and_each_entry_has_a_kind():
    assert len(ALLOWLIST) <= 20
    package_defs = defs()
    for entry, (kind, reason) in ALLOWLIST.items():
        assert kind in KINDS and reason, entry
        path, _, qualname = entry.partition("::")
        exact = [d for d in package_defs if d.path == path and d.qualname == qualname]
        # Only a captured class nothing builds goes in whole; every
        # other entry names one def.
        assert exact or entry == "storage/cache.py::ArrayCache", entry


def test_every_e2e_entry_names_what_the_tracer_pins():
    assert untraced(ALLOWLIST) == []


def test_an_e2e_entry_the_tracer_does_not_pin_is_flagged():
    """``PrefetchCache`` is a captured class, but the package builds it;
    ``cached_pages`` is no span point; an ``error`` entry is not checked."""
    reason = ("e2e", "planted")
    entries = {
        "storage/cache.py::PrefetchCache": reason,
        "storage/cache.py::PrefetchCache.cached_pages": reason,
        "storage/cache.py::PrefetchCache.touch": reason,
        "storage/cache.py::ArrayCache": reason,
        "graph/traversal.py::region_crossings": reason,
        "storage/sharded.py::ShardedCache.insert": reason,
        "serve/latency.py::LatencyRecorder.count_error": ("error", "planted"),
    }
    assert untraced(entries) == [
        "storage/cache.py::PrefetchCache",
        "storage/cache.py::PrefetchCache.cached_pages",
    ]


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


def test_the_recorded_tier1_leg_is_seeded_and_skips_the_direct_benchmarks():
    assert "--hypothesis-seed=0" in drive.TIER1
    deselected = {arg.split("=", 1)[1] for arg in drive.TIER1 if arg.startswith("--deselect=")}
    assert deselected == {"tests/test_reach.py", *drive.DIRECT_BENCHMARKS}


#: A sweep's stdout as the driver reads it: one group, its shape, the summary.
SWEEP_OUT = """Fig 3 -- hit rate
shape: holds

cells 16  computed 16  failed 0  resumed 0  corrupt-dropped 0  stale-dropped 0  \
pool-crashes 0  jobs 2  elapsed 1.2s
store: results/fig3.jsonl
"""


def test_a_sweep_with_a_failed_cell_is_flagged():
    assert drive.sweep_problems(SWEEP_OUT, shapes=1) == []
    failed = SWEEP_OUT.replace("failed 0", "failed 1")
    assert drive.sweep_problems(failed, shapes=1) == ["failed 1, expected 0"]
    assert drive.sweep_problems(failed, shapes=1, failed=1) == []
    assert drive.sweep_problems("", shapes=0) == ["failed None, expected 0"]


def test_a_resume_that_recomputed_is_flagged():
    assert drive.sweep_problems(SWEEP_OUT, shapes=1, computed=0) == ["computed 16, expected 0"]


def test_a_missing_shape_line_or_heading_is_flagged():
    unshaped = SWEEP_OUT.replace("shape: holds\n", "")
    assert drive.sweep_problems(unshaped, shapes=1) == ["shapes 0, expected 1"]
    assert drive.sweep_problems(SWEEP_OUT, shapes=1, headings=["Fig 3 --"]) == []
    assert drive.sweep_problems(SWEEP_OUT, shapes=1, headings=["Fig 4"]) == ["no 'Fig 4'"]


LOAD = {"requests": 200, "ok": 190, "shed": 10, "errors": 0, "drained": True}


@pytest.mark.parametrize(
    "bad",
    [{"errors": 1}, {"drained": False}, {"drained": None}, {"requests": 199}],
    ids=["errors", "undrained", "no-shutdown", "short-count"],
)
def test_a_loadgen_report_short_of_its_load_is_flagged(bad):
    assert drive.load_problems(LOAD, 200) == []
    ((name, value),) = bad.items()
    assert drive.load_problems({**LOAD, **bad}, 200) == [
        f"{name} {value!r}, expected {LOAD[name]!r}"
    ]


FINAL = {"drained": True, "requests_admitted": 190, "requests_shed": 10, "plans_replayed": 3}


def test_a_daemon_report_whose_books_do_not_partition_is_flagged():
    assert drive.books_problems(FINAL, 200, replays=True) == []
    lost = {**FINAL, "requests_shed": 9}
    assert drive.books_problems(lost, 200) == ["offered 199, expected 200"]
    # Cut-off load (``requests`` unknown): the drain is still checked.
    assert drive.books_problems(lost, None) == []
    assert drive.books_problems({**FINAL, "drained": False}, None) == [
        "drained False, expected True"
    ]
    assert drive.books_problems({**FINAL, "plans_replayed": 0}, 200, replays=True) == [
        "replays False, expected True"
    ]


def test_the_driver_checks_the_shape_of_every_paper_figure():
    shaped = [str(figure) for figure, entry in FIGURES.items() if entry.shape is not None]
    assert list(drive.SHAPED) == shaped


def test_the_recorder_is_inert_without_a_log():
    env = {**os.environ, "PYTHONPATH": str(REACH)}
    env.pop("REPRO_REACH_LOG", None)
    probe = "import sys, sitecustomize; print(sitecustomize.__file__, sys.gettrace())"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [str(REACH / "sitecustomize.py"), "None"]


def _recorded(tmp_path: Path, script: str) -> set[str]:
    """Run ``script`` under the recorder over ``tmp_path/pkg``; the lines it logged."""
    log = tmp_path / "entered.log"
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(REACH), str(tmp_path)]),
        "REPRO_REACH_LOG": str(log),
        "REPRO_REACH_ROOT": str(tmp_path / "pkg"),
    }
    script = textwrap.dedent(script)
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
    return set(log.read_text().splitlines())


def test_the_recorder_logs_what_a_process_and_its_fork_enter(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    planted = _plant(package)
    (package / "__init__.py").write_text("")
    script = """
        import os
        from pkg import mod

        mod.Box().size
        if os.fork() == 0:
            mod.Box().decorated()
            os._exit(0)
        os.wait()
        """
    unlisted, _, _ = check(planted, _recorded(tmp_path, script), {})
    assert sorted(d.qualname for d in unlisted) == ["outer", "outer.nested", "plain"]


def _planted_package(tmp_path: Path, source: str) -> Path:
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(textwrap.dedent(source))
    return package


def _lines_of(log: set[str], path: str = "mod.py") -> set[int]:
    """The line numbers of ``path`` a recorder log holds (def records left out)."""
    return {int(key.split(":")[1]) for key in log if key.count(":") == 1 and key.startswith(path)}


def test_the_recorder_outlives_a_signal_handler_raising_inside_it(tmp_path):
    """A pending signal's handler often runs on the hook's first
    instruction, and CPython unsets a hook that raises: the runner's cell
    alarm would end the log of the process it fires in."""
    _planted_package(
        tmp_path,
        """
        def on_alarm(signum, frame):
            raise TimeoutError


        def spin():
            return 1


        def after():
            return 2
        """,
    )
    script = """
        import signal
        from pkg import mod

        signal.signal(signal.SIGALRM, mod.on_alarm)
        for _ in range(100):
            try:
                signal.setitimer(signal.ITIMER_REAL, 1e-4)
                while True:
                    mod.spin()
            except TimeoutError:
                pass
        mod.after()
        """
    log = _recorded(tmp_path, script)
    names = {key.split(":")[2] for key in log if key.count(":") == 2}
    assert names == {"<module>", "on_alarm", "spin", "after"}
    assert _lines_of(log) == {2, 3, 6, 7, 10, 11}


def test_a_handler_run_inside_the_hook_is_credited_its_lines(tmp_path):
    """Nothing is traced inside the hook, where a pending signal's handler
    often runs (the runner's ``_on_alarm``); its lines count as run."""
    _planted_package(
        tmp_path,
        """
        def on_signal(signum, frame):
            return signum


        def after():
            return 2
        """,
    )
    script = """
        import signal
        import sitecustomize
        from pkg import mod

        signal.signal(signal.SIGUSR1, mod.on_signal)
        write = sitecustomize._write

        def write_then_signal(record):
            sitecustomize._write = write
            write(record)
            signal.raise_signal(signal.SIGUSR1)

        # The next record is written inside the hook; the signal lands there.
        sitecustomize._write = write_then_signal
        mod.after()
        """
    assert _lines_of(_recorded(tmp_path, script)) == {2, 3, 6, 7}


def test_a_handler_getsignal_returned_goes_back_unchanged(tmp_path):
    """Handing back the handler found (as ``ServeDaemon.run_async`` does)
    must not wrap the recorder's wrapper again."""
    _planted_package(tmp_path, "")
    script = """
        import signal

        signal.signal(signal.SIGUSR1, lambda signum, frame: None)
        found = signal.getsignal(signal.SIGUSR1)
        signal.signal(signal.SIGUSR1, found)
        assert signal.getsignal(signal.SIGUSR1) is found
        """
    _recorded(tmp_path, script)


#: An entered def whose ``if`` branch the run below never takes.
BRANCHY = """
def pick(x):
    if x:{marker}
        return 1
    return 2
"""


def test_an_entered_def_with_an_unreached_branch_is_flagged(tmp_path):
    package = _planted_package(tmp_path, BRANCHY.format(marker=""))
    log = _recorded(tmp_path, "from pkg import mod; mod.pick(0)")
    assert check(defs(package), log, {})[0] == []
    found = line_check(package, log, log, {})
    assert found.unreached == ["mod.py:4  return 1"]
    assert found.marked == {} and found.stale == []


def test_a_marker_spares_the_block_it_heads(tmp_path):
    package = _planted_package(tmp_path, BRANCHY.format(marker="  # reach: error planted"))
    log = _recorded(tmp_path, "from pkg import mod; mod.pick(0)")
    found = line_check(package, log, log, {})
    assert found.unreached == [] and found.stale == []
    ((marker, n_lines),) = found.marked.items()
    assert (marker.line, marker.kind, marker.reason, n_lines) == (3, "error", "planted", 1)
    assert list(marker.block) == [3, 4]


@pytest.mark.parametrize(
    ("marker", "arg"),
    [("error planted", 1), ("hope planted", 0), ("error", 0)],
    ids=["block-reached", "unknown-kind", "no-reason"],
)
def test_a_marker_that_spares_nothing_is_stale(tmp_path, marker, arg):
    package = _planted_package(tmp_path, BRANCHY.format(marker=f"  # reach: {marker}"))
    log = _recorded(tmp_path, f"from pkg import mod; mod.pick(0); mod.pick({arg})")
    found = line_check(package, log, log, {})
    assert found.marked == {}
    assert [(m.line, m.kind) for m in found.stale] == [(3, marker.split()[0])]


def test_a_marker_off_a_block_header_is_stale(tmp_path):
    source = BRANCHY.format(marker="").replace("return 2", "return 2  # reach: error planted")
    package = _planted_package(tmp_path, source)
    log = _recorded(tmp_path, "from pkg import mod; mod.pick(0)")
    found = line_check(package, log, log, {})
    assert [m.line for m in found.stale] == [5] and len(found.stale[0].block) == 0
    assert found.unreached == ["mod.py:4  return 1"]


@pytest.mark.parametrize(
    ("opener", "header"),
    [
        ("if x:", "else:"),
        ("if x:", "elif x > 1:"),
        ("try:", "except ValueError:"),
        ("try:", "finally:"),
    ],
)
def test_a_marker_heads_else_elif_except_and_finally_blocks(tmp_path, opener, header):
    lines = [
        "def f(x):",
        f"    {opener}",
        "        y = 1",
        f"    {header}  # reach: error planted",
        "        y = 2",
        "    return y",
    ]
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text("\n".join(lines) + "\n")
    (marker,) = markers(package)
    assert list(marker.block) == [4, 5]


def test_exempt_and_never_entered_allowlisted_defs_need_no_lines(tmp_path):
    package = _planted_package(tmp_path, PLANTED)
    log = _recorded(tmp_path, "from pkg import mod; mod.plain(); mod.outer()")
    allowlist = {"mod.py::Box": ("protocol", "planted")}
    assert line_check(package, log, log, allowlist).unreached == ["mod.py:24  return 4"]


def test_the_package_carries_few_markers_each_with_a_kind_and_a_reason():
    found = markers()
    assert len(found) <= 25
    for marker in found:
        assert marker.kind in KINDS and marker.reason and len(marker.block), marker


def test_a_private_page_file_left_behind_is_flagged(tmp_path):
    assert drive.pagefiles_left(tmp_path) == []
    (tmp_path / "unrelated.pf").touch()
    (tmp_path / "scout-pages-x1.pf").touch()
    assert drive.pagefiles_left(tmp_path) == ["left scout-pages-x1.pf"]
