"""Run every shipped entry point under the reach recorder, then check.

    python -m tests.reach.drive

Each entry point runs as a child process with ``tests/reach`` first on
``PYTHONPATH``, so ``sitecustomize.py`` records the ``src/repro`` code
it (and every process it forks or starts) enters into
``results/reach/entered.log``.  The entry points:

- every ``sweep --figure`` grid with ``--list-cells``, then run at smoke
  scale, with ``--jobs 2``, ``--profile``, ``--shard`` + ``merge``, a
  resume, ``compact``, and a cell that hits ``--timeout`` and is
  recomputed on resume;
- ``run`` and ``run --list``;
- ``serve`` + ``loadgen`` legs: the plain plane with a ``stats`` op and
  short interval reports, a fresh then reused mmap page file (and one
  built for another dataset, which ``serve`` refuses), a sharded cache,
  bursty arrivals over a faulty disk, and a SIGTERM mid-load;
- the eight ``examples/*.py``;
- the four e2e workloads (``benchmarks/e2e/e2e_bench.py``), traced and
  untraced;
- the three direct ``benchmarks/`` tests (Figs 15/16 and the §8.2
  memory and ablation checks, DESIGN.md §4).

Any entry point that exits other than expected fails the run; then
``check.py`` reports every def nothing entered (exit 1 on any outside
its allowlist).
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

from tests.reach.check import LOG, OUT, PACKAGE, REPO
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

#: ``--figure`` -> the smoke-scale flags its sweep runs with.
FIGURES = {
    "3": ["--neurons", "8", "--sequences", "2"],
    "10": ["--benches", "adhoc_stat,model_building", "--neurons", "8", "--sequences", "2"],
    "11": ["--neurons", "8", "--sequences", "2", "--jobs", "2", "--profile"],
    "12": ["--neurons", "8", "--sequences", "2", "--jobs", "2"],
    "13": ["--points", "2", "--neurons", "8", "--sequences", "2", "--jobs", "2"],
    "14": ["--sequences", "2"],
    "17": ["--sequences", "2", "--jobs", "2"],
    "clients": ["--neurons", "8", "--clients", "1,2", "--cache-pages", "auto,64"],
    "chaos": ["--neurons", "8", "--jobs", "2"],
    "tiers": ["--neurons", "8", "--jobs", "2"],
    "shards": ["--neurons", "8", "--jobs", "2"],
}

EXAMPLES = sorted(str(path) for path in (REPO / "examples").glob("*.py"))
E2E_WORKLOADS = ("scout_walk", "fleet_hot", "fleet_thrash", "daemon_open")
DIRECT_BENCHMARKS = (
    "benchmarks/test_fig15_graph_build.py",
    "benchmarks/test_fig16_prediction_cost.py",
    "benchmarks/test_mem_and_ablations.py",
)


def run(argv: list[str], expect: int = 0) -> str:
    """Run one entry point to completion; its stdout, or a failure."""
    started = time.perf_counter()
    done = subprocess.run(
        argv, cwd=REPO, env=ENV, capture_output=True, text=True, timeout=TIMEOUT_S
    )
    shown = " ".join(os.path.relpath(a, REPO) if a.startswith(str(REPO)) else a for a in argv)
    print(f"{time.perf_counter() - started:6.1f}s  exit {done.returncode}  {shown}", flush=True)
    if done.returncode != expect:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-4000:])
        raise SystemExit(f"reach: {shown!r} exited {done.returncode}, expected {expect}")
    return done.stdout


def sweeps() -> None:
    for figure, flags in FIGURES.items():
        run([*CLI, "sweep", "--figure", figure, *flags, "--list-cells"])
    for figure, flags in FIGURES.items():
        if figure != "10":
            run([*CLI, "sweep", "--figure", figure, *flags, "--out", f"{OUT}/fig{figure}.jsonl"])
    fig10 = [*CLI, "sweep", "--figure", "10", *FIGURES["10"]]
    for shard in ("0/2", "1/2"):
        run([*fig10, "--shard", shard, "--out", f"{OUT}/fig10.jsonl"])
    shards = [f"{OUT}/fig10.shard{i}of2.jsonl" for i in (0, 1)]
    run([*CLI, "merge", "--out", f"{OUT}/fig10.jsonl", *shards])
    resumed = run([*CLI, "sweep", "--figure", "3", *FIGURES["3"], "--out", f"{OUT}/fig3.jsonl"])
    assert "computed 0" in resumed, resumed
    run([*CLI, "compact", f"{OUT}/fig3.jsonl", f"{OUT}/fig10.jsonl"])
    # Every cell runs out of time, then a resume recomputes it.
    timed = [*CLI, "sweep", "--figure", "3", *FIGURES["3"], "--out", f"{OUT}/timeout.jsonl"]
    out = run([*timed, "--timeout", "0.001", "--retries", "0"])
    assert "computed 0  failed 16" in out, out
    assert "computed 16" in run(timed)


def cells() -> None:
    run([*CLI, "run", "--list"])
    run([*CLI, "run", "--neurons", "6", "--sequences", "2"])


class Daemon:
    """One ``serve`` child: booted to its ``ready`` line, stopped by the caller."""

    def __init__(self, name: str, flags: list[str]) -> None:
        self.name = name
        self.stdout = open(OUT / f"serve-{name}.log", "w")
        argv = [*CLI, "serve", "--port", "0", "--neurons", "8", "--pool", "4"]
        argv += ["--queries-per-session", "12", "--report-interval", "0.2", *flags]
        argv += ["--report", str(OUT / f"serve-{name}.json")]
        self.process = subprocess.Popen(
            argv, cwd=REPO, env=ENV, stdout=self.stdout, stderr=subprocess.STDOUT, text=True
        )
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and self.process.poll() is None:
            for line in (OUT / f"serve-{name}.log").read_text().splitlines():
                if line.startswith("{") and json.loads(line)["type"] == "ready":
                    self.port = json.loads(line)["port"]
                    return
            time.sleep(0.1)
        raise SystemExit(f"reach: serve {name} did not get ready")

    def loadgen(self, flags: list[str]) -> None:
        argv = [*CLI, "loadgen", "--port", str(self.port), "--connections", "4", *flags]
        run([*argv, "--seed", "42", "--out", str(OUT / f"latency-{self.name}.json")])

    def stats(self) -> dict:
        """The daemon's ``stats`` op, over the wire format of ``serve.protocol``."""
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as conn:
            body = json.dumps({"op": "stats"}).encode()
            conn.sendall(len(body).to_bytes(4, "big") + body)
            header = conn.recv(4, socket.MSG_WAITALL)
            reply = conn.recv(int.from_bytes(header, "big"), socket.MSG_WAITALL)
        return json.loads(reply)

    def wait(self) -> None:
        code = self.process.wait(timeout=120)
        self.stdout.close()
        print(f"          exit {code}  serve {self.name}", flush=True)
        if code != 0:
            raise SystemExit(f"reach: serve {self.name} exited {code}")


def daemons() -> None:
    poisson = ["--requests", "200", "--rate", "400", "--process", "poisson", "--shutdown"]
    plain = Daemon("plain", [])
    assert plain.stats()["ok"] is True
    plain.loadgen(poisson)
    plain.wait()

    pagefile = OUT / "pages.pf"
    mmap = ["--storage", "mmap", "--miss-path", "combined", "--tier-pages", "64"]
    for name in ("mmap", "mmap-reuse"):
        daemon = Daemon(name, [*mmap, "--pagefile", str(pagefile)])
        daemon.loadgen(poisson)
        daemon.wait()
    # A page file built for another dataset is refused at boot.
    foreign = [*CLI, "serve", "--port", "0", "--neurons", "6", *mmap]
    run([*foreign, "--pagefile", str(pagefile)], expect=2)

    sharded = Daemon("shards", ["--shards", "4", "--partition", "hilbert"])
    sharded.loadgen(poisson)
    sharded.wait()

    bursty = Daemon("bursty", ["--max-queue", "16", "--fault-rate", "0.05"])
    storm = ["--requests", "1000", "--rate", "2000", "--burst", "8", "--process", "bursty"]
    bursty.loadgen([*storm, "--shutdown"])
    bursty.wait()

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
            flags = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace]
            run([PY, bench, *flags])


def direct_benchmarks() -> None:
    run([PY, "-m", "pytest", "-q", "-p", "no:cacheprovider", *DIRECT_BENCHMARKS])


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    started = time.perf_counter()
    for step in (sweeps, cells, daemons, examples, e2e, direct_benchmarks):
        step()
    print(f"reach: entry points done in {time.perf_counter() - started:.0f}s", flush=True)
    return check()


if __name__ == "__main__":
    sys.exit(main())
