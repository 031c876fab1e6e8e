"""Fault-injection prefetcher kinds for the sweep runner's own tests.

These builders inject faults one level above the disk: into the sweep
runner's *cell execution*, through ordinary prefetcher specs, so the
timeout / retry / pool-respawn machinery runs on real cell specs.
:func:`register` adds them to the runner's builder table under their
historical kind names (``_sleep`` / ``_fail`` / ``_exit``).  Pool
workers are forked, so a worker sees the table of the process that
registered them.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Mapping

from repro.baselines import NoPrefetcher
from repro.sim import runner


def sleep_prefetcher(ds: Any, ix: Any, p: Mapping[str, Any]):
    """Kind ``_sleep``: stall ``seconds``, then act as ``none``."""
    time.sleep(float(p.get("seconds", 0.0)))
    return NoPrefetcher()


def _first_attempt(p: Mapping[str, Any]) -> bool:
    """Whether this is the attempt a ``once_flag`` spec fails (it creates
    the flag); without ``once_flag`` every attempt is."""
    flag = p.get("once_flag")
    if flag is None:
        return True
    flag_path = Path(flag)
    if flag_path.exists():
        return False
    flag_path.touch()
    return True


def fail_prefetcher(ds: Any, ix: Any, p: Mapping[str, Any]):
    """Kind ``_fail``: raise during construction.

    With ``once_flag`` set, the first attempt creates that file and
    raises while later attempts succeed -- a deterministic transient
    failure for exercising retry-then-succeed.
    """
    if not _first_attempt(p):
        return NoPrefetcher()
    raise RuntimeError(str(p.get("message", "injected cell failure")))


def exit_prefetcher(ds: Any, ix: Any, p: Mapping[str, Any]):
    """Kind ``_exit``: kill the hosting process with ``os._exit``.

    Simulates a hard worker death (OOM kill, segfault): the process
    vanishes without unwinding, which breaks a
    :class:`~concurrent.futures.ProcessPoolExecutor` and exercises the
    runner's pool-respawn path.  With ``once_flag`` set, only the first
    attempt dies (the flag file persists across the respawned pool);
    ``seconds`` delays the death so sibling cells can finish first.
    Pooled runs only -- in a serial run this kills the sweep itself.
    """
    if not _first_attempt(p):
        return NoPrefetcher()
    time.sleep(float(p.get("seconds", 0.0)))
    os._exit(int(p.get("code", 1)))


FAULT_PREFETCHER_BUILDERS = {
    "_sleep": sleep_prefetcher,
    "_fail": fail_prefetcher,
    "_exit": exit_prefetcher,
}


def register() -> None:
    """Make the three kinds buildable by ``PrefetcherSpec`` in this process
    and in every pool worker it forks from now on."""
    runner._PREFETCHER_BUILDERS.update(FAULT_PREFETCHER_BUILDERS)
