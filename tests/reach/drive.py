"""Run every shipped entry point, then tier 1, under the reach recorder; check.

    python -m tests.reach.drive

Each entry point runs as a child process with ``tests/reach`` first on
``PYTHONPATH``, so ``sitecustomize.py`` records the ``src/repro`` defs
and lines it (and every process it forks or starts) runs into
``results/reach/entered.log``.  The entry points:

- every ``sweep --figure`` grid with ``--list-cells``, then run at smoke
  scale, with ``--jobs 2``, ``--profile``, ``--shard`` + ``merge``, a
  resume, ``compact``, and a cell that hits ``--timeout`` and is
  recomputed on resume;
- ``run`` and ``run --list``;
- ``serve`` + ``loadgen`` legs: the plain plane with a ``stats`` op and
  short interval reports, a fresh then reused mmap page file (and one
  built for another dataset, which ``serve`` refuses), a private page
  file that must be gone after ``ready`` and after a SIGKILL, a sharded cache,
  bursty arrivals on a healthy and on a faulty disk, and a SIGTERM
  mid-load;
- the eight ``examples/*.py``;
- the four e2e workloads (``benchmarks/e2e/e2e_bench.py``), untraced
  for 1 s and traced for 4 s (it exits non-zero on a failed pin or law);
- the three direct ``benchmarks/`` tests (Figs 15/16 and the §8.2
  memory and ablation checks, DESIGN.md §4).

Any entry point that exits other than expected, or whose output or
report file says it did not do its job, fails the run: a sweep with a
failed cell (save the deliberate timeout leg), a paper figure missing a
``shape:`` line, a serving grid missing a table heading, a resume that
recomputed, a ``merge`` or ``compact`` that lost a cell, a ``loadgen``
report with an error, a short count or an undrained daemon, a daemon
report whose admitted and shed requests do not add up to the load, or a
private page file left in its ``TMPDIR``.  The
outputs, stores and reports stay in ``results/reach/``.  Then the
tier-1 command runs under the same recorder into
``results/reach/tier1.log`` at a fixed Hypothesis seed
(``tests/test_reach.py`` deselected: it starts recorders of its own;
the direct benchmarks too: they ran above), and ``check.py`` reports
every def no entry point entered and every line neither log reached (exit 1 on any
not allowlisted, exempt or marked).
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from tests.reach.check import LOG, OUT, PACKAGE, REPO, TIER1_LOG
from tests.reach.check import main as check

REACH = os.path.dirname(os.path.abspath(__file__))
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join([REACH, str(REPO / "src")]),
    "REPRO_REACH_LOG": str(LOG),
    "REPRO_REACH_ROOT": str(PACKAGE),
}
PY = sys.executable
CLI = [PY, "-m", "repro.cli"]
TIMEOUT_S = 900

#: A pooled sweep arms its per-cell alarm inside the pool workers.
POOLED = ["--jobs", "2", "--timeout", "300"]

#: ``--figure`` -> the smoke-scale flags its sweep runs with.
FIGURES = {
    "3": ["--neurons", "8", "--sequences", "2"],
    "10": ["--benches", "adhoc_stat,model_building", "--neurons", "8", "--sequences", "2"],
    "11": ["--neurons", "8", "--sequences", "2", *POOLED, "--profile"],
    "12": ["--neurons", "8", "--sequences", "2", *POOLED],
    "13": ["--points", "2", "--neurons", "8", "--sequences", "2", *POOLED],
    "14": ["--sequences", "2"],
    "17": ["--sequences", "2", *POOLED],
    "clients": ["--neurons", "8", "--clients", "1,2,64", "--cache-pages", "auto,64", *POOLED],
    "chaos": ["--neurons", "8", *POOLED],
    "tiers": ["--neurons", "8", *POOLED],
    "shards": ["--neurons", "8", *POOLED],
}

#: The paper figures: each rendered group ends in a ``shape:`` line (DESIGN.md §4).
SHAPED = ("3", "11", "12", "13", "14", "17")

#: ``--figure`` -> table headings its run must print.
HEADINGS = {
    "17": ("Fig 17a", "Fig 17b"),
    "clients": ("Serving sweep -- shared cache auto",),
    "chaos": ("Chaos sweep -- breaker on",),
    "tiers": ("Tiers sweep --",),
    "shards": ("Shards sweep -- partition hilbert", "Shards sweep -- partition hash"),
}

EXAMPLES = sorted(str(path) for path in (REPO / "examples").glob("*.py"))
E2E_WORKLOADS = ("scout_walk", "fleet_hot", "fleet_thrash", "daemon_open")
DIRECT_BENCHMARKS = (
    "benchmarks/test_fig15_graph_build.py",
    "benchmarks/test_fig16_prediction_cost.py",
    "benchmarks/test_mem_and_ablations.py",
)


def unmet(found: dict, **wanted) -> list[str]:
    """Each ``name=value`` that ``found`` does not hold, said as a problem."""
    return [
        f"{name} {found.get(name)!r}, expected {value!r}"
        for name, value in wanted.items()
        if found.get(name) != value
    ]


def missing(stdout: str, *texts: str) -> list[str]:
    """Each of ``texts`` that ``stdout`` does not print, said as a problem."""
    return [f"no {text!r}" for text in texts if text not in stdout]


def sweep_problems(stdout: str, shapes: int, headings=(), **counts: int) -> list[str]:
    """What a sweep's stdout gets wrong: a summary counter (``failed 0``
    unless ``counts`` says otherwise), the number of ``shape:`` lines, a
    missing heading."""
    lines = stdout.splitlines()
    summary = next((line.split() for line in lines if line.startswith("cells ")), [])
    found = {key: int(value) for key, value in zip(summary[::2], summary[1::2]) if value.isdigit()}
    printed = {"shapes": sum(line.startswith("shape: ") for line in lines)}
    return [
        *unmet(found, **{"failed": 0, **counts}),
        *unmet(printed, shapes=shapes),
        *missing(stdout, *headings),
    ]


def load_problems(report: dict, requests: int) -> list[str]:
    """A ``loadgen --out`` report short of its load: the offered count
    answered without error, and the daemon drained."""
    return unmet(report, requests=requests, errors=0, drained=True)


def books_problems(final: dict, requests: int | None, replays: bool = False) -> list[str]:
    """A daemon ``--report`` that did not drain, whose admitted and shed
    requests do not partition the ``requests`` offered (when known), or
    that replayed no plan tape although it should have."""
    found = {
        **final,
        "offered": final.get("requests_admitted", 0) + final.get("requests_shed", 0),
        "replays": final.get("plans_replayed", 0) > 0,
    }
    wanted = {"drained": True}
    if requests is not None:
        wanted["offered"] = requests
    if replays:
        wanted["replays"] = True
    return unmet(found, **wanted)


def pagefiles_left(directory) -> list[str]:
    """Each private page file (``scout-pages-*``) in ``directory``, said as a problem."""
    return [f"left {path.name}" for path in sorted(Path(directory).glob("scout-pages-*"))]


def require(what: str, problems: list[str]) -> None:
    if problems:
        raise SystemExit(f"reach: {what}: {'; '.join(problems)}")


def run(argv: list[str], expect: int = 0, env: dict = ENV) -> str:
    """Run one entry point to completion; its stdout, or a failure."""
    started = time.perf_counter()
    done = subprocess.run(
        argv, cwd=REPO, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    shown = " ".join(os.path.relpath(a, REPO) if a.startswith(str(REPO)) else a for a in argv)
    print(f"{time.perf_counter() - started:6.1f}s  exit {done.returncode}  {shown}", flush=True)
    if done.returncode != expect:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
        raise SystemExit(f"reach: {shown!r} exited {done.returncode}, expected {expect}")
    return done.stdout


def sweeps() -> None:
    shapes, n_cells = {}, {}
    for figure, flags in FIGURES.items():
        listing = run([*CLI, "sweep", "--figure", figure, *flags, "--list-cells"]).splitlines()
        groups = {line.split("  ")[0] for line in listing[:-1]}
        shapes[figure] = len(groups) if figure in SHAPED else 0
        n_cells[figure] = int(listing[-1].split()[0])

    def sweep(figure: str, *argv: str, **counts: int) -> None:
        out = run([*CLI, "sweep", "--figure", figure, *FIGURES[figure], *argv])
        problems = sweep_problems(out, shapes[figure], HEADINGS.get(figure, ()), **counts)
        require(f"sweep --figure {figure} {' '.join(argv)}", problems)

    for figure in FIGURES:
        if figure != "10":
            sweep(figure, "--out", f"{OUT}/fig{figure}.jsonl")
    for shard in ("0/2", "1/2"):
        sweep("10", "--shard", shard, "--out", f"{OUT}/fig10.jsonl")
    shards = [f"{OUT}/fig10.shard{i}of2.jsonl" for i in (0, 1)]
    merged = run([*CLI, "merge", "--out", f"{OUT}/fig10.jsonl", *shards])
    require("merge", missing(merged, f"merged {n_cells['10']} cells "))
    sweep("3", "--out", f"{OUT}/fig3.jsonl", computed=0, resumed=n_cells["3"])
    stores = {f"{OUT}/fig{figure}.jsonl": n_cells[figure] for figure in ("3", "10", "17")}
    compacted = run([*CLI, "compact", *stores])
    clean = "cells  dropped corrupt 0 stale 0 superseded 0 "
    kept = [f"{path}: kept {n} {clean}" for path, n in stores.items()]
    require("compact", missing(compacted, *kept))
    # Every cell runs out of time, then a resume recomputes it.
    timed = ("--out", f"{OUT}/timeout.jsonl")
    sweep("3", *timed, "--timeout", "0.001", "--retries", "0", computed=0, failed=n_cells["3"])
    sweep("3", *timed, computed=n_cells["3"])


def cells() -> None:
    run([*CLI, "run", "--list"])
    run([*CLI, "run", "--neurons", "6", "--sequences", "2"])


class Daemon:
    """One ``serve`` child: booted to its ``ready`` line, stopped by the caller."""

    def __init__(self, name: str, flags: list[str], env: dict = ENV) -> None:
        self.name = name
        self.requests: int | None = None
        self.stdout = open(OUT / f"serve-{name}.log", "w")
        argv = [*CLI, "serve", "--port", "0", "--neurons", "8", "--pool", "4"]
        argv += ["--queries-per-session", "12", "--report-interval", "0.2", *flags]
        argv += ["--report", str(OUT / f"serve-{name}.json")]
        self.process = subprocess.Popen(
            argv, cwd=REPO, env=env, stdout=self.stdout, stderr=subprocess.STDOUT, text=True
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and self.process.poll() is None:
            for line in (OUT / f"serve-{name}.log").read_text().splitlines():
                if line.startswith("{") and json.loads(line)["type"] == "ready":
                    self.port = json.loads(line)["port"]
                    return
            time.sleep(0.1)
        raise SystemExit(f"reach: serve {name} did not get ready")

    def loadgen(self, requests: int, flags: list[str]) -> None:
        """Offer ``requests`` and drain the daemon; the report must say so."""
        self.requests = requests
        out = OUT / f"latency-{self.name}.json"
        argv = [*CLI, "loadgen", "--port", str(self.port), "--connections", "4", "--seed", "42"]
        run([*argv, "--requests", str(requests), *flags, "--shutdown", "--out", str(out)])
        require(f"loadgen {self.name}", load_problems(json.loads(out.read_text()), requests))

    def stats(self) -> dict:
        """The daemon's ``stats`` op, over the wire format of ``serve.protocol``."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as conn:
            body = json.dumps({"op": "stats"}).encode()
            conn.sendall(len(body).to_bytes(4, "big") + body)
            header = conn.recv(4, socket.MSG_WAITALL)
            reply = conn.recv(int.from_bytes(header, "big"), socket.MSG_WAITALL)
        return json.loads(reply)

    def wait(self, replays: bool = False) -> None:
        """Exit 0 with a drained report whose books partition the load."""
        code = self.process.wait(timeout=120)
        self.stdout.close()
        print(f"          exit {code}  serve {self.name}", flush=True)
        if code != 0:
            raise SystemExit(f"reach: serve {self.name} exited {code}")
        final = json.loads((OUT / f"serve-{self.name}.json").read_text())
        require(f"serve {self.name}", books_problems(final, self.requests, replays))


def daemons() -> None:
    poisson = ["--rate", "400", "--process", "poisson"]
    plain = Daemon("plain", [])
    assert plain.stats()["ok"] is True
    plain.loadgen(200, poisson)
    plain.wait()

    pagefile = OUT / "pages.pf"
    mmap = ["--storage", "mmap", "--miss-path", "combined", "--tier-pages", "64"]
    for name in ("mmap", "mmap-reuse"):
        daemon = Daemon(name, [*mmap, "--pagefile", str(pagefile)])
        require(f"serve {name}", [] if pagefile.stat().st_size else [f"empty {pagefile}"])
        daemon.loadgen(200, poisson)
        daemon.wait()
    # A page file built for another dataset is refused at boot.
    foreign = [*CLI, "serve", "--port", "0", "--neurons", "6", *mmap]
    run([*foreign, "--pagefile", str(pagefile)], expect=2)
    # A private page file is unlinked once mapped: none is left after
    # ``ready``, nor after a SIGKILL that skips the drain.
    tmpdir = OUT / "private-tmp"
    tmpdir.mkdir()
    private = Daemon("mmap-private", ["--storage", "mmap"], {**ENV, "TMPDIR": str(tmpdir)})
    require("serve mmap-private after ready", pagefiles_left(tmpdir))
    private.process.kill()
    private.process.wait(timeout=60)
    private.stdout.close()
    require("serve mmap-private after SIGKILL", pagefiles_left(tmpdir))

    sharded = Daemon("shards", ["--shards", "4", "--partition", "hilbert"])
    sharded.loadgen(200, poisson)
    sharded.wait()

    # Bursts into a small admission bound: batched flushes and shedding.
    # Plan tapes replay on the healthy disk; faults make sessions step plainly.
    storm = ["--rate", "2000", "--burst", "8", "--process", "bursty"]
    bursty = Daemon("bursty", ["--max-queue", "16"])
    bursty.loadgen(1000, storm)
    bursty.wait(replays=True)
    faulty = Daemon("bursty-faulty", ["--max-queue", "16", "--fault-rate", "0.05"])
    faulty.loadgen(1000, storm)
    faulty.wait()

    # SIGTERM while a duration-bound load is still arriving: the daemon
    # drains and exits 0; the cut-off load generator may fail.
    stopped = Daemon("sigterm", [])
    argv = [*CLI, "loadgen", "--port", str(stopped.port), "--duration", "4", "--rate", "200"]
    load = subprocess.Popen(
        argv, cwd=REPO, env=ENV, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    time.sleep(1.5)
    stopped.process.send_signal(signal.SIGTERM)
    stopped.wait()
    try:
        load.wait(timeout=60)
    except subprocess.TimeoutExpired:
        load.kill()
        load.wait()


def examples() -> None:
    for example in EXAMPLES:
        run([PY, example])


def e2e() -> None:
    bench = str(REPO / "benchmarks" / "e2e" / "e2e_bench.py")
    for workload in E2E_WORKLOADS:
        for trace in ("0", "1"):
            # The traced leg runs long enough for its output checks.
            seconds = "4" if trace == "1" else "1"
            flags = ["--workload", workload, "--seed", "7", "--seconds", seconds, "--trace", trace]
            run([PY, bench, *flags])


def direct_benchmarks() -> None:
    run([PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", *DIRECT_BENCHMARKS])


#: The tier-1 command as the drive records it.  A fixed Hypothesis seed
#: draws the same cases every run, so a line only a drawn case reaches
#: cannot fail the check at random.  ``test_reach.py`` starts recorders
#: of its own; the direct benchmarks already ran into ``entered.log``,
#: which the line check reads too.
TIER1 = [
    *("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"),
    *(f"--deselect={path}" for path in ("tests/test_reach.py", *DIRECT_BENCHMARKS)),
]


def tier1() -> None:
    run([PY, *TIER1], env={**ENV, "REPRO_REACH_LOG": str(TIER1_LOG)})


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    started = time.perf_counter()
    for step in (sweeps, cells, daemons, examples, e2e, direct_benchmarks):
        step()
    print(f"reach: entry points done in {time.perf_counter() - started:.0f}s", flush=True)
    tier1()
    print(f"reach: entry points and tier 1 done in {time.perf_counter() - started:.0f}s")
    return check()


if __name__ == "__main__":
    sys.exit(main())
