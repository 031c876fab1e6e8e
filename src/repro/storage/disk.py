"""Deterministic disk cost model.

The paper measures wall-clock response times on a 4x300 GB SAS stripe.
We replace the hardware with an analytic model so experiments are
deterministic and laptop-sized (see DESIGN.md §2).  The model captures
the two properties the prefetching results depend on:

1. random page reads are dominated by positioning time (seek +
   rotational latency), while pages contiguous with the previous read
   only pay transfer time -- this is what makes residual I/O after a
   misprediction expensive; and
2. striping divides positioning time across spindles for batched reads.

Times are returned in (simulated) seconds and accumulated by the caller;
the model never sleeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from repro.storage.stats import IOStats

__all__ = ["DiskModel", "DiskParameters"]


def _canonical(page_ids: Sequence[int] | Iterable[int]) -> list[int]:
    """The batch as sorted, duplicate-free plain ints.

    A list (or an array's ``tolist``) one pass proves already so -- what
    each disk layer hands the next -- is returned as is, never mutated.
    """
    pages = page_ids.tolist() if isinstance(page_ids, np.ndarray) else page_ids
    if type(pages) is list:
        previous = None
        for page in pages:
            if type(page) is not int or (previous is not None and page <= previous):
                break
            previous = page
        else:
            return pages
    return sorted(set(int(p) for p in page_ids))


@dataclass(frozen=True)
class DiskParameters:
    """Tunable characteristics of the simulated disk array.

    Defaults approximate a 15k RPM SAS drive: ~5 ms average seek, 2 ms
    average rotational delay, ~150 MB/s streaming transfer, 4 KB pages,
    4-way striping (as in the paper's testbed).
    """

    seek_s: float = 0.005
    rotational_s: float = 0.002
    transfer_mb_per_s: float = 150.0
    page_bytes: int = 4096
    stripe_ways: int = 4

    #: When ``True``, a page contiguous with the previously read page
    #: only pays transfer time.  Off by default: the paper identifies
    #: *random reads in spatial indexes* as the bottleneck (§3.1), and
    #: range queries over bulk-loaded spatial data fetch scattered
    #: leaves, so each page read pays (striped) positioning time.
    sequential_discount: bool = False

    def __post_init__(self) -> None:
        if self.seek_s < 0 or self.rotational_s < 0:
            raise ValueError("latencies must be non-negative")
        if self.transfer_mb_per_s <= 0:
            raise ValueError("transfer rate must be positive")
        if self.page_bytes <= 0 or self.stripe_ways <= 0:
            raise ValueError("page size and stripe ways must be positive")

    @property
    def positioning_s(self) -> float:
        """Seek + rotational cost of one random access."""
        return self.seek_s + self.rotational_s

    @property
    def transfer_s_per_page(self) -> float:
        return self.page_bytes / (self.transfer_mb_per_s * 1024.0 * 1024.0)


class DiskModel:
    """Charges simulated time for page reads and tracks statistics.

    Page ids are assumed to reflect physical layout: page ``i + 1`` is
    contiguous with page ``i`` (the STR bulkload and FLAT both emit
    spatially-clustered page orders, as the paper's indexes do).
    """

    def __init__(self, params: DiskParameters | None = None) -> None:
        self.params = params or DiskParameters()
        self.stats = IOStats()
        self._last_page: int | None = None

    def reset_head(self) -> None:
        """Forget the head position (e.g. after the OS cache is dropped)."""
        self._last_page = None

    def reset_stats(self) -> None:
        self.stats = IOStats()
        self.reset_head()

    # -- cost accounting ----------------------------------------------------

    def read_pages(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        """Charge and return the time to read the given pages.

        The pages are fetched in sorted order (as an elevator scheduler
        would); each run of consecutive page ids pays one positioning
        cost (amortized across stripe ways) plus per-page transfer.
        """
        pages = _canonical(page_ids)
        if not pages:
            return 0.0

        params = self.params
        if params.sequential_discount:
            runs = 0
            previous = self._last_page
            for page in pages:
                if previous is None or page != previous + 1:
                    runs += 1
                previous = page
        else:
            runs = len(pages)
        self._last_page = pages[-1]

        positioning = runs * params.positioning_s / params.stripe_ways
        transfer = len(pages) * params.transfer_s_per_page
        elapsed = positioning + transfer

        self.stats.pages_read += len(pages)
        self.stats.random_positionings += runs
        self.stats.seconds_busy += elapsed
        return elapsed

    def trim_to_budget(
        self, page_ids: Sequence[int] | Iterable[int], budget_s: float
    ) -> list[int]:
        """Longest sorted prefix of the pages readable within ``budget_s``.

        Models the window closing mid-batch: the page read in flight when
        the budget runs out still completes, so when the pages are
        trimmed at all, the result includes exactly the page that crossed
        the budget line -- the caller overshoots by at most one page
        read.  Does not charge time or move the head; call
        :meth:`read_pages` on the result to do that.
        """
        pages = _canonical(page_ids)
        params = self.params
        kept: list[int] = []
        cost = 0.0
        previous = self._last_page
        for page in pages:
            if params.sequential_discount and previous is not None and page == previous + 1:
                step = params.transfer_s_per_page
            else:
                step = params.positioning_s / params.stripe_ways + params.transfer_s_per_page
            cost += step
            kept.append(page)
            previous = page
            if cost >= budget_s:
                break
        return kept

    def cost_if_cold(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        """Time to read the pages from a cold start, without charging it.

        Used to size prefetch windows: the paper defines the window as
        ``ratio * d`` with ``d`` the cold retrieval time of the query.
        """
        pages = _canonical(page_ids)
        if not pages:
            return 0.0
        params = self.params
        if params.sequential_discount:
            runs = 1 + sum(1 for a, b in zip(pages, pages[1:]) if b != a + 1)
        else:
            runs = len(pages)
        return (
            runs * params.positioning_s / params.stripe_ways
            + len(pages) * params.transfer_s_per_page
        )

    # -- recovery surface (trivial on a disk that never fails) ----------------

    def verify_delivery(self, page_ids: Sequence[int] | Iterable[int], page_table) -> float:
        """Repair time for torn payloads among the just-read pages: none.

        The bare model delivers every page intact, so callers can verify
        unconditionally; :class:`~repro.storage.faults.FaultyDiskModel`
        is where this does work.
        """
        return 0.0

    def recover_read(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        """A clean demand re-read of a failed batch: an ordinary read here."""
        return self.read_pages(page_ids)

    def estimate_read_time(self, n_pages: int, contiguous_fraction: float = 0.5) -> float:
        """Cost estimate for ``n_pages`` without reading them.

        Used to size prefetch windows: the paper defines the window as
        ``ratio * d`` where ``d`` is the cold read time of a query.
        ``contiguous_fraction`` is the assumed fraction of pages that
        follow their predecessor contiguously.
        """
        if n_pages <= 0:
            return 0.0
        if not 0.0 <= contiguous_fraction <= 1.0:
            raise ValueError("contiguous_fraction must be within [0, 1]")
        params = self.params
        runs = max(1, round(n_pages * (1.0 - contiguous_fraction)))
        return (
            runs * params.positioning_s / params.stripe_ways
            + n_pages * params.transfer_s_per_page
        )
