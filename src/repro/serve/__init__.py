"""Open-loop serving surface in front of the simulator (DESIGN.md §8).

The serving *simulator* (:mod:`repro.sim.serve`) is closed-loop: a
scheduler steps every client as fast as the CPU allows, and the
interesting outputs are hit rates.  This package is the open-loop
complement -- a real asyncio daemon (``scout-repro serve``) that
accepts client connections over a length-prefixed JSON protocol, runs
each connection as a resumable :class:`~repro.sim.engine.QuerySession`
against one shared cache and disk, and measures what hit rate alone
hides: wall-clock latency percentiles (p50/p99/p999), throughput, queue
depth, and admission-control behavior under Poisson and bursty arrivals
(``scout-repro loadgen``).  The daemon takes its layers as one
:class:`~repro.sim.engine.SimulationConfig`, so it serves from the
cache and disk a simulation run would build; the daemon and the load
generator each keep their latencies, shed and error counts in one
:class:`~repro.serve.latency.LatencyRecorder` ledger, which every
report they write reads.
"""

from repro.serve.daemon import DaemonConfig, ServeDaemon
from repro.serve.latency import LatencyRecorder
from repro.serve.loadgen import bursty_arrivals, poisson_arrivals, run_loadgen
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)

__all__ = [
    "DaemonConfig",
    "LatencyRecorder",
    "MAX_FRAME_BYTES",
    "ProtocolError",
    "ServeDaemon",
    "bursty_arrivals",
    "decode_frame",
    "encode_frame",
    "poisson_arrivals",
    "read_frame",
    "run_loadgen",
    "write_frame",
]
