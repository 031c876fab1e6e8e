"""Deterministic fault injection for the simulated storage stack.

The paper's I/O path never fails: :class:`~repro.storage.disk.DiskModel`
is an analytic cost counter, and every fetched page is assumed intact.
A deployment's disks are not so polite -- they time out, stall, and
deliver torn pages -- and whether SCOUT-style prefetching still pays off
under that noise is exactly the regime the serving layer walks into.
This module makes storage misbehaviour a *first-class, seeded input*:

* :class:`FaultPlan` is a small picklable spec of four fault kinds --
  transient read errors, latency-spike episodes, torn/corrupt page
  payloads and stuck-disk intervals -- each with a rate, all drawing
  from per-kind RNG streams derived from one seed.  A kind with rate
  zero consumes **no** randomness and charges no time, so enabling one
  kind never perturbs another's draws; a plan with every rate at zero
  cannot inject at all, and ``SimulationConfig.build_disk`` builds the
  bare disk for it.
* :class:`FaultyDiskModel` compiles a plan into a wrapper that is
  interface-identical to :class:`DiskModel`.  Transient errors are
  retried with capped exponential backoff and deterministic jitter;
  retries, backoff time, spikes, stalls and repairs are all charged as
  *simulated* seconds in :class:`~repro.storage.stats.IOStats` -- the
  model never sleeps, per the DESIGN.md §2 substitution rule.
* :class:`ReadFailure` is raised when retries are exhausted; callers
  recover with :meth:`FaultyDiskModel.recover_read` (a clean demand
  re-read) and account the pages as failed rather than missed.
* :class:`CircuitBreaker` is the per-client degradation state machine
  (closed → open → half-open): repeated prefetch-path failures trip it,
  a tripped client falls back to demand paging, and a cooldown later it
  re-probes with a single trial query.

Everything is a pure function of the plan's seed and the call sequence,
so fault-injected experiments keep the repo's determinism contract:
``jobs=1`` and ``jobs=N`` sweeps are bit-identical, and round-robin and
lockstep serving schedules (which issue disk reads in the same client
order) stay bit-identical under faults.

The module also hosts the *orchestrator-level* fault registry: the
``_sleep`` / ``_fail`` / ``_exit`` prefetcher builders that the sweep
runner's timeout/retry/pool-respawn tests inject through ordinary cell
specs (see :data:`FAULT_PREFETCHER_BUILDERS`).
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from repro.storage.disk import DiskModel, DiskParameters, _canonical
from repro.storage.stats import IOStats

__all__ = [
    "FAULT_PREFETCHER_BUILDERS",
    "CircuitBreaker",
    "FaultPlan",
    "FaultyDiskModel",
    "ReadFailure",
]


class ReadFailure(Exception):
    """A page batch could not be read after exhausting its retries.

    ``pages`` is the failed batch and ``seconds`` the simulated time
    already charged to the disk for the doomed attempts (backoff plus
    any stall surcharge).  The engine's plan executor enriches a
    propagating failure with ``prior_pages`` / ``prior_seconds`` -- the
    partial prefetch work completed before the failing batch -- so the
    caller can account everything the window actually spent.
    """

    def __init__(self, pages: Sequence[int], seconds: float) -> None:
        super().__init__(f"read of {len(pages)} page(s) failed after retries")
        self.pages = list(pages)
        self.seconds = float(seconds)
        self.prior_pages = 0
        self.prior_seconds = 0.0


@dataclass(frozen=True)
class FaultPlan:
    """Seeded spec of how the simulated disk misbehaves.

    Rates are per-``read_pages``-call probabilities (``corrupt_rate`` is
    per *page*); every kind draws from its own RNG stream derived from
    ``seed``, and a kind with rate zero never consumes randomness -- so
    enabling one fault kind cannot perturb another's draw sequence, and
    an all-zero plan is bit-identical to the bare disk.  Plans are
    frozen, hashable and picklable; they travel inside cell specs.
    """

    #: Probability that a read attempt fails transiently (retried with
    #: capped exponential backoff; see ``retry_limit``).
    transient_rate: float = 0.0
    #: Probability that a successful read suffers a latency spike.
    latency_rate: float = 0.0
    #: Elapsed-time multiplier of a latency spike.
    latency_factor: float = 4.0
    #: Per-page probability that a delivered payload is torn/corrupt
    #: (detected by checksum at cache insert and repaired by re-read).
    corrupt_rate: float = 0.0
    #: Probability that a read opens a stuck-disk interval.
    stuck_rate: float = 0.0
    #: Length of a stuck interval, in read calls (the opening read
    #: included); each affected read pays ``stuck_extra_s``.
    stuck_reads: int = 4
    #: Surcharge per read while the disk is stuck, in simulated seconds.
    stuck_extra_s: float = 0.05
    #: Root seed of the per-kind RNG streams.
    seed: int = 0

    #: Retries granted to a transiently failing read before it raises
    #: :class:`ReadFailure`.
    retry_limit: int = 3
    #: First retry's backoff, in simulated seconds; doubles per retry.
    backoff_base_s: float = 0.002
    #: Ceiling on a single retry's (pre-jitter) backoff.
    backoff_cap_s: float = 0.05
    #: Whether sessions arm the per-client circuit breaker.
    breaker: bool = True
    #: Consecutive prefetch-path failures that trip the breaker.
    breaker_threshold: int = 3
    #: Degraded (demand-paging) queries before a half-open re-probe.
    breaker_cooldown: int = 4

    def __post_init__(self) -> None:
        for name in ("transient_rate", "latency_rate", "corrupt_rate", "stuck_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        if self.latency_factor < 1.0:
            raise ValueError(f"latency_factor must be >= 1, got {self.latency_factor}")
        if self.stuck_reads < 1:
            raise ValueError(f"stuck_reads must be >= 1, got {self.stuck_reads}")
        if self.stuck_extra_s < 0 or self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("fault durations must be non-negative")
        if self.retry_limit < 0:
            raise ValueError(f"retry_limit must be >= 0, got {self.retry_limit}")
        if self.breaker_threshold < 1 or self.breaker_cooldown < 1:
            raise ValueError("breaker threshold and cooldown must be >= 1")

    @property
    def active(self) -> bool:
        """Whether any fault kind can actually fire."""
        return bool(
            self.transient_rate or self.latency_rate or self.corrupt_rate or self.stuck_rate
        )

    @property
    def max_backoff_s(self) -> float:
        """Upper bound on one read's total jittered backoff time."""
        total = 0.0
        for attempt in range(self.retry_limit):
            total += min(self.backoff_cap_s, self.backoff_base_s * 2.0**attempt)
        return 1.5 * total

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault plan key(s) {sorted(unknown)}; known: {sorted(known)}"
            )
        return cls(**dict(data))


#: XOR mask a torn payload applies to a page's true checksum -- any
#: non-zero constant works; the point is that delivered != expected.
_TORN_CHECKSUM_XOR = 0xFFFFFFFF

#: Per-kind RNG stream indices (spawn keys off the plan seed).
_STREAM_TRANSIENT, _STREAM_LATENCY, _STREAM_CORRUPT, _STREAM_STUCK = range(4)


class FaultyDiskModel:
    """A :class:`DiskModel` wrapper that injects the plan's faults.

    Interface-identical to the bare model (``params`` / ``stats`` /
    ``read_pages`` / ``trim_to_budget`` / ``cost_if_cold`` /
    ``estimate_read_time`` / ``reset_head`` / ``reset_stats``), plus the
    recovery surface: :meth:`verify_delivery` (checksum read-repair at
    cache insert) and :meth:`recover_read` (clean demand re-read after a
    :class:`ReadFailure`).  Cost estimation never injects -- windows are
    sized from the healthy model, as a deployment would size them from
    nominal device specs.
    """

    def __init__(
        self, params: DiskParameters | None = None, plan: FaultPlan | None = None
    ) -> None:
        self._inner = DiskModel(params)
        self.plan = plan or FaultPlan()
        seed = int(self.plan.seed)
        self._transient_rng = np.random.default_rng([seed, _STREAM_TRANSIENT])
        self._latency_rng = np.random.default_rng([seed, _STREAM_LATENCY])
        self._corrupt_rng = np.random.default_rng([seed, _STREAM_CORRUPT])
        self._stuck_rng = np.random.default_rng([seed, _STREAM_STUCK])
        self._stuck_left = 0
        #: Pages of the most recent read whose payloads arrived torn;
        #: consumed (or overwritten) by the next verify/read.
        self._corrupt_last: set[int] = set()

    # -- delegated surface --------------------------------------------------

    @property
    def params(self) -> DiskParameters:
        return self._inner.params

    @property
    def stats(self) -> IOStats:
        return self._inner.stats

    def reset_head(self) -> None:
        self._inner.reset_head()

    def reset_stats(self) -> None:
        self._inner.reset_stats()

    def trim_to_budget(
        self, page_ids: Sequence[int] | Iterable[int], budget_s: float
    ) -> list[int]:
        return self._inner.trim_to_budget(page_ids, budget_s)

    def cost_if_cold(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        return self._inner.cost_if_cold(page_ids)

    def estimate_read_time(self, n_pages: int, contiguous_fraction: float = 0.5) -> float:
        return self._inner.estimate_read_time(n_pages, contiguous_fraction)

    # -- the faulty read path -----------------------------------------------

    def _backoff_delay(self, retry_index: int) -> float:
        """Jittered backoff of retry ``retry_index`` (0-based).

        Capped exponential, scaled by a uniform jitter in [0.5, 1.5)
        drawn from the transient stream -- deterministic given the plan
        seed, bounded by ``1.5 * backoff_cap_s`` per retry.
        """
        plan = self.plan
        base = min(plan.backoff_cap_s, plan.backoff_base_s * 2.0**retry_index)
        return base * (0.5 + float(self._transient_rng.random()))

    def read_pages(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        """Charge and return the time to read the pages, faults included.

        Order of business per call: (1) stuck-interval surcharge;
        (2) transient-failure retry loop -- each failed attempt charges
        a jittered backoff, and exhausting ``retry_limit`` charges
        everything spent so far and raises :class:`ReadFailure`;
        (3) the clean read, delegated to the inner model; (4) latency
        spike; (5) per-page corruption draws marking torn payloads for
        :meth:`verify_delivery`.  Every guard checks its rate first, so
        disabled fault kinds consume no randomness.
        """
        pages = _canonical(page_ids)
        if not pages:
            return 0.0
        plan = self.plan
        stats = self._inner.stats

        extra = 0.0
        if plan.stuck_rate:
            if self._stuck_left > 0:
                self._stuck_left -= 1
                extra += plan.stuck_extra_s
                stats.stuck_reads += 1
            elif float(self._stuck_rng.random()) < plan.stuck_rate:
                self._stuck_left = plan.stuck_reads - 1
                extra += plan.stuck_extra_s
                stats.stuck_reads += 1

        backoff = 0.0
        failures = 0
        if plan.transient_rate:
            while float(self._transient_rng.random()) < plan.transient_rate:
                failures += 1
                stats.transient_errors += 1
                if failures > plan.retry_limit:
                    stats.retries_exhausted += 1
                    stats.backoff_seconds += backoff
                    stats.seconds_busy += extra + backoff
                    raise ReadFailure(pages, extra + backoff)
                backoff += self._backoff_delay(failures - 1)
                stats.retries += 1
            if failures:
                stats.retries_recovered += 1

        elapsed = self._inner.read_pages(pages)

        if plan.latency_rate and float(self._latency_rng.random()) < plan.latency_rate:
            extra += elapsed * (plan.latency_factor - 1.0)
            stats.latency_spikes += 1

        if plan.corrupt_rate:
            torn = self._corrupt_rng.random(len(pages)) < plan.corrupt_rate
            self._corrupt_last = {p for p, bad in zip(pages, torn) if bad}

        stats.backoff_seconds += backoff
        stats.seconds_busy += extra + backoff
        return elapsed + extra + backoff

    # -- recovery surface ---------------------------------------------------

    def verify_delivery(self, page_ids: Sequence[int] | Iterable[int], page_table) -> float:
        """Checksum-verify the just-read pages; repair and charge for torn ones.

        Compares each delivered page's checksum (a torn payload arrives
        with a mangled one) against the :class:`~repro.storage.page.PageTable`
        ground truth.  Mismatching pages are quarantined -- never handed
        to the cache -- and cleanly re-read from the inner model, counted
        under ``corrupt_detected`` / ``reread_pages``.  Returns the
        repair time to add to the caller's charge; the repaired pages
        are then safe to insert.
        """
        if not self._corrupt_last:
            return 0.0
        tainted, self._corrupt_last = self._corrupt_last, set()
        suspects = [p for p in _canonical(page_ids) if p in tainted]
        if not suspects:
            return 0.0
        expected = page_table.checksums_of(suspects)
        delivered = [checksum ^ _TORN_CHECKSUM_XOR for checksum in expected]
        torn = [p for p, want, got in zip(suspects, expected, delivered) if want != got]
        if not torn:
            return 0.0
        stats = self._inner.stats
        stats.corrupt_detected += len(torn)
        stats.reread_pages += len(torn)
        return self._inner.read_pages(torn)

    def recover_read(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        """Cleanly re-read a failed batch on the demand path.

        After a :class:`ReadFailure` the query must still be answered --
        the user is waiting -- so the serve path falls back to an
        uninjected read (modeling e.g. a redundant stripe or a retry on
        a recovered device), charged at full cost and counted under
        ``reread_pages``.
        """
        pages = _canonical(page_ids)
        if not pages:
            return 0.0
        self._inner.stats.reread_pages += len(pages)
        return self._inner.read_pages(pages)


class CircuitBreaker:
    """Per-client graceful-degradation state machine.

    Classic three-state breaker, driven once per query by the session's
    prefetch phase:

    * **closed** -- prefetching runs normally; ``breaker_threshold``
      *consecutive* prefetch-path failures trip the breaker;
    * **open** -- the client is degraded to demand paging (no observe,
      no plan, no prefetch I/O); each degraded query counts down the
      cooldown, and when it expires the next query probes half-open;
    * **half-open** -- one trial query prefetches normally; success
      closes the breaker, failure re-opens it for a fresh cooldown.

    Purely counter-driven (no randomness, no wall clock), so breaker
    trajectories are bit-reproducible given the fault plan's seed.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int = 3, cooldown: int = 4) -> None:
        if threshold < 1 or cooldown < 1:
            raise ValueError("breaker threshold and cooldown must be >= 1")
        self.threshold = int(threshold)
        self.cooldown = int(cooldown)
        self.state = self.CLOSED
        self.opens = 0
        self.half_opens = 0
        self.closes = 0
        self._consecutive_failures = 0
        self._cooldown_left = 0

    def allow_prefetch(self) -> bool:
        """Whether this query may prefetch; called once per query.

        While open, each call burns one cooldown query; the call that
        exhausts the cooldown transitions to half-open and admits the
        probe.
        """
        if self.state == self.OPEN:
            self._cooldown_left -= 1
            if self._cooldown_left > 0:
                return False
            self.state = self.HALF_OPEN
            self.half_opens += 1
        return True

    def record_success(self) -> None:
        """A prefetch phase completed without a read failure."""
        self._consecutive_failures = 0
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED
            self.closes += 1

    def record_failure(self) -> None:
        """A prefetch phase hit an exhausted-retries read failure."""
        self._consecutive_failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED and self._consecutive_failures >= self.threshold
        ):
            self.state = self.OPEN
            self.opens += 1
            self._cooldown_left = self.cooldown
            self._consecutive_failures = 0


# -- orchestrator-level fault registry ----------------------------------------------
#
# These builders inject faults one level up from the disk: into the
# sweep runner's *cell execution*, through ordinary prefetcher specs.
# They exist so the timeout/retry/pool-respawn machinery can be
# exercised with real cell specs in any worker process (registries
# travel with the module, unlike monkeypatches, so they work under every
# multiprocessing start method).  The runner merges this registry into
# its prefetcher-builder table, keeping the historical kind names.


def _build_sleep_prefetcher(ds: Any, ix: Any, p: Mapping[str, Any]):
    """Fault-injection kind ``_sleep``: stall ``seconds``, then act as ``none``."""
    time.sleep(float(p.get("seconds", 0.0)))
    from repro.baselines import NoPrefetcher

    return NoPrefetcher()


def _build_fail_prefetcher(ds: Any, ix: Any, p: Mapping[str, Any]):
    """Fault-injection kind ``_fail``: raise during construction.

    With ``once_flag`` set, the first attempt creates that file and
    raises while later attempts succeed -- a deterministic transient
    failure for exercising retry-then-succeed.
    """
    flag = p.get("once_flag")
    if flag is not None:
        flag_path = Path(flag)
        if flag_path.exists():
            from repro.baselines import NoPrefetcher

            return NoPrefetcher()
        flag_path.touch()
    raise RuntimeError(str(p.get("message", "injected cell failure")))


def _build_exit_prefetcher(ds: Any, ix: Any, p: Mapping[str, Any]):
    """Fault-injection kind ``_exit``: kill the hosting process with ``os._exit``.

    Simulates a hard worker death (OOM kill, segfault): the process
    vanishes without unwinding, which breaks a
    :class:`~concurrent.futures.ProcessPoolExecutor` and exercises the
    runner's pool-respawn path.  With ``once_flag`` set, only the first
    attempt dies (the flag file persists across the respawned pool);
    ``seconds`` delays the death so sibling cells can finish first.
    Pooled runs only -- in a serial run this kills the sweep itself.
    """
    flag = p.get("once_flag")
    if flag is not None:
        flag_path = Path(flag)
        if flag_path.exists():
            from repro.baselines import NoPrefetcher

            return NoPrefetcher()
        flag_path.touch()
    time.sleep(float(p.get("seconds", 0.0)))
    os._exit(int(p.get("code", 1)))


#: The orchestrator's fault-injection prefetcher kinds, merged into the
#: sweep runner's builder registry under their historical names.
FAULT_PREFETCHER_BUILDERS: dict[str, Callable[..., Any]] = {
    "_sleep": _build_sleep_prefetcher,
    "_fail": _build_fail_prefetcher,
    "_exit": _build_exit_prefetcher,
}
