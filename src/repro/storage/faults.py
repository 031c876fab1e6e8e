"""Deterministic fault injection for the simulated storage stack.

The paper's I/O path never fails: :class:`~repro.storage.disk.DiskModel`
is an analytic cost counter, and every fetched page is assumed intact.
A deployment's disks are not so polite -- they time out, stall, and
deliver torn pages -- and whether SCOUT-style prefetching still pays off
under that noise is exactly the regime the serving layer walks into.
This module makes storage misbehaviour a *first-class, seeded input*:

* :class:`FaultPlan` is a small picklable spec of three fault kinds --
  transient read errors, latency-spike episodes and torn/corrupt page
  payloads -- each with a rate, all drawing from per-kind RNG streams
  derived from one seed.  A kind with rate zero consumes **no**
  randomness and charges no time, so enabling one kind never perturbs
  another's draws; a plan with every rate at zero cannot inject at all,
  and ``SimulationConfig.build_disk`` builds the bare disk for it.
* :class:`FaultyDiskModel` compiles a plan into a wrapper that is
  interface-identical to :class:`DiskModel`.  Transient errors are
  retried with capped exponential backoff and deterministic jitter;
  retries, backoff time, spikes and repairs are all charged as
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
``jobs=1`` and ``jobs=N`` sweeps are bit-identical, and the serving
scheduler and its round-robin test oracle (which issue disk reads in the
same client order) stay bit-identical under faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.storage.disk import DiskModel, _canonical
from repro.storage.stats import IOStats

__all__ = [
    "CircuitBreaker",
    "FaultPlan",
    "FaultyDiskModel",
    "ReadFailure",
]


#: Elapsed-time multiplier of a latency spike.
SPIKE_FACTOR = 4.0
#: First retry's backoff, in simulated seconds; doubles per retry.
BACKOFF_BASE_S = 0.002
#: Ceiling on a single retry's (pre-jitter) backoff.
BACKOFF_CAP_S = 0.05


class ReadFailure(Exception):
    """A page batch could not be read after exhausting its retries.

    ``pages`` is the failed batch and ``seconds`` the simulated time
    already charged to the disk for the doomed attempts (their backoff).
    The engine's plan executor enriches a propagating failure with
    ``prior_pages`` / ``prior_seconds`` -- the partial prefetch work
    completed before the failing batch -- so the caller can account
    everything the window actually spent.
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
    #: Probability that a successful read suffers a latency spike
    #: (costing :data:`SPIKE_FACTOR` times its analytic time).
    latency_rate: float = 0.0
    #: Per-page probability that a delivered payload is torn/corrupt
    #: (detected by checksum at cache insert and repaired by re-read).
    corrupt_rate: float = 0.0
    #: Root seed of the per-kind RNG streams.
    seed: int = 0

    #: Retries granted to a transiently failing read before it raises
    #: :class:`ReadFailure`.
    retry_limit: int = 3
    #: Whether sessions arm the per-client circuit breaker.
    breaker: bool = True
    #: Consecutive prefetch-path failures that trip the breaker.
    breaker_threshold: int = 3
    #: Queries from a trip to its half-open re-probe, the probe included:
    #: ``breaker_cooldown - 1`` degraded (demand-paging) queries, then the probe.
    breaker_cooldown: int = 4

    def __post_init__(self) -> None:
        for name in ("transient_rate", "latency_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")
        if self.retry_limit < 0:
            raise ValueError(f"retry_limit must be >= 0, got {self.retry_limit}")
        if self.breaker_threshold < 1 or self.breaker_cooldown < 1:
            raise ValueError("breaker threshold and cooldown must be >= 1")

    @property
    def active(self) -> bool:
        """Whether any fault kind can actually fire."""
        return bool(self.transient_rate or self.latency_rate or self.corrupt_rate)


#: XOR mask a torn payload applies to a page's true checksum -- any
#: non-zero constant works; the point is that delivered != expected.
_TORN_CHECKSUM_XOR = 0xFFFFFFFF

#: Per-kind RNG stream indices (spawn keys off the plan seed).
_STREAM_TRANSIENT, _STREAM_LATENCY, _STREAM_CORRUPT = range(3)


class FaultyDiskModel:
    """A :class:`DiskModel` wrapper that injects the plan's faults.

    Interface-identical to the bare model (``stats`` / ``read_pages`` /
    ``trim_to_budget`` / ``cost_if_cold``), plus the recovery surface:
    :meth:`verify_delivery` (checksum read-repair at cache insert) and
    :meth:`recover_read` (clean demand re-read after a
    :class:`ReadFailure`).  Cost
    estimation never injects -- windows are sized from the healthy
    model, as a deployment would size them from nominal device specs.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self._inner = DiskModel()
        self.plan = plan
        seed = int(self.plan.seed)
        self._transient_rng = np.random.default_rng([seed, _STREAM_TRANSIENT])
        self._latency_rng = np.random.default_rng([seed, _STREAM_LATENCY])
        self._corrupt_rng = np.random.default_rng([seed, _STREAM_CORRUPT])
        #: Pages of the most recent read whose payloads arrived torn;
        #: consumed (or overwritten) by the next verify/read.
        self._corrupt_last: set[int] = set()

    # -- delegated surface --------------------------------------------------

    def trim_to_budget(
        self, page_ids: Sequence[int] | Iterable[int], budget_s: float
    ) -> list[int]:
        return self._inner.trim_to_budget(page_ids, budget_s)

    def cost_if_cold(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        return self._inner.cost_if_cold(page_ids)

    # -- the faulty read path -----------------------------------------------

    def _backoff_delay(self, retry_index: int) -> float:
        """Jittered backoff of retry ``retry_index`` (0-based).

        Capped exponential, scaled by a uniform jitter in [0.5, 1.5)
        drawn from the transient stream -- deterministic given the plan
        seed, bounded by ``1.5 * BACKOFF_CAP_S`` per retry.
        """
        base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * 2.0**retry_index)
        return base * (0.5 + float(self._transient_rng.random()))

    def read_pages(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        """Charge and return the time to read the pages, faults included.

        Order of business per call: (1) transient-failure retry loop --
        each failed attempt charges a jittered backoff, and exhausting
        ``retry_limit`` charges everything spent so far and raises
        :class:`ReadFailure`; (2) the clean read, delegated to the inner
        model; (3) latency spike; (4) per-page corruption draws marking
        torn payloads for :meth:`verify_delivery`.  Every guard checks
        its rate first, so disabled fault kinds consume no randomness.
        """
        pages = _canonical(page_ids)
        if not pages:
            return 0.0
        plan = self.plan
        stats = self._inner.stats

        backoff = 0.0
        failures = 0
        if plan.transient_rate:
            while float(self._transient_rng.random()) < plan.transient_rate:
                failures += 1
                stats.transient_errors += 1
                if failures > plan.retry_limit:
                    stats.retries_exhausted += 1
                    stats.backoff_seconds += backoff
                    stats.seconds_busy += backoff
                    raise ReadFailure(pages, backoff)
                backoff += self._backoff_delay(failures - 1)
                stats.retries += 1
            if failures:
                stats.retries_recovered += 1

        elapsed = self._inner.read_pages(pages)

        extra = 0.0
        if plan.latency_rate and float(self._latency_rng.random()) < plan.latency_rate:
            extra += elapsed * (SPIKE_FACTOR - 1.0)
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
      no plan, no prefetch I/O); every query counts down the cooldown,
      so the ``cooldown - 1`` queries after the trip are degraded and
      the ``cooldown``-th probes half-open;
    * **half-open** -- one trial query prefetches normally; success
      closes the breaker, failure re-opens it for a fresh cooldown.

    Purely counter-driven (no randomness, no wall clock), so breaker
    trajectories are bit-reproducible given the fault plan's seed.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int, cooldown: int) -> None:
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
