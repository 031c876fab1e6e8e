"""Deterministic disk cost model.

The paper measures wall-clock response times on a 4x300 GB SAS stripe.
We replace the hardware with an analytic model so experiments are
deterministic and laptop-sized (see DESIGN.md §2).  The model captures
the two properties the prefetching results depend on:

1. random page reads are dominated by positioning time (seek +
   rotational latency), and range queries over bulk-loaded spatial data
   fetch scattered leaves, so every page read pays it -- this is what
   makes residual I/O after a misprediction expensive; and
2. striping divides positioning time across spindles.

Times are returned in (simulated) seconds and accumulated by the caller;
the model never sleeps.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.storage.stats import IOStats

__all__ = ["DiskModel"]

#: The simulated array: a 15k RPM SAS drive's ~5 ms average seek and
#: 2 ms average rotational delay, ~150 MB/s streaming transfer, 4 KB
#: pages, striped 4 ways -- the paper's testbed (§7.1), which no
#: experiment varies.
SEEK_S = 0.005
ROTATIONAL_S = 0.002
TRANSFER_MB_PER_S = 150.0
PAGE_BYTES = 4096
STRIPE_WAYS = 4

#: Seek + rotational cost of one random access.
POSITIONING_S = SEEK_S + ROTATIONAL_S
#: Transfer time of one page.
TRANSFER_S_PER_PAGE = PAGE_BYTES / (TRANSFER_MB_PER_S * 1024.0 * 1024.0)


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


class DiskModel:
    """Charges simulated time for page reads and tracks statistics.

    Every page pays one striped positioning (``POSITIONING_S /
    STRIPE_WAYS``) plus its transfer, whatever was read before it: the
    model keeps no head position, so a cost is a function of the batch
    alone.
    """

    def __init__(self) -> None:
        self.stats = IOStats()

    # -- cost accounting ----------------------------------------------------

    def read_pages(self, page_ids: Sequence[int] | Iterable[int]) -> float:
        """Charge and return the time to read the given pages.

        The pages are fetched in sorted order (as an elevator scheduler
        would), duplicates once; each pays one positioning cost
        (amortized across stripe ways) plus its transfer.
        """
        pages = _canonical(page_ids)
        if not pages:
            return 0.0

        positioning = len(pages) * POSITIONING_S / STRIPE_WAYS
        transfer = len(pages) * TRANSFER_S_PER_PAGE
        elapsed = positioning + transfer

        self.stats.pages_read += len(pages)
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
        read.  Does not charge time; call :meth:`read_pages` on the
        result to do that.
        """
        pages = _canonical(page_ids)
        step = POSITIONING_S / STRIPE_WAYS + TRANSFER_S_PER_PAGE
        kept: list[int] = []
        cost = 0.0
        for page in pages:
            cost += step
            kept.append(page)
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
        return len(pages) * POSITIONING_S / STRIPE_WAYS + len(pages) * TRANSFER_S_PER_PAGE

    # -- recovery surface (trivial on a disk that never fails) ----------------

    def verify_delivery(self, page_ids: Sequence[int] | Iterable[int], page_table) -> float:
        """Repair time for torn payloads among the just-read pages: none.

        The bare model delivers every page intact, so callers can verify
        unconditionally; :class:`~repro.storage.faults.FaultyDiskModel`
        is where this does work.
        """
        return 0.0
