"""Common interface of the spatial indexes.

An index partitions the dataset's objects into disk pages (4 KB, 87
objects in the paper's configuration) and answers axis-aligned range
queries with both the matching object ids and the page ids that must be
fetched to produce them.  The simulator charges I/O for the *pages*; the
prefetchers reason about the *objects*.

Alongside the single-region entry points, every index answers *batched*
probes -- :meth:`SpatialIndex.pages_for_regions` and
:meth:`SpatialIndex.query_many` -- so callers that fan one simulated
query into dozens of small region probes (the incremental prefetch
plan, SCOUT-OPT's gap walk, the lockstep tick's probe streams) can
amortize the traversal over one vectorized pass.  The batched results
are defined to be element-wise identical to the single-region calls;
concrete indexes may override them with faster implementations but not
different ones.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.datagen.dataset import Dataset
from repro.geometry.aabb import AABB, boxes_overlap
from repro.storage.page import PageTable

__all__ = ["QueryResult", "SpatialIndex", "PAGE_FANOUT", "region_corners"]

#: Objects per 4 KB page, as configured in §7.1.
PAGE_FANOUT = 87


@dataclass(frozen=True)
class QueryResult:
    """Outcome of a range query.

    ``object_ids`` are the objects whose geometry intersects the query
    region; ``page_ids`` are all pages the index had to touch (a page
    may contribute no matching object but still costs a read).
    """

    object_ids: np.ndarray
    page_ids: np.ndarray

    @property
    def n_objects(self) -> int:
        return len(self.object_ids)

def region_corners(regions: Sequence[AABB] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` corner arrays, each ``(n, 3)``, of a probe batch.

    Packed ``(n, 2, 3)`` corners are split as views; a box sequence is
    gathered into fresh arrays.
    """
    if isinstance(regions, np.ndarray):
        return regions[:, 0], regions[:, 1]
    return np.array([r.lo for r in regions]), np.array([r.hi for r in regions])


class SpatialIndex(abc.ABC):
    """Page-organized spatial index over a :class:`Dataset`."""

    def __init__(self, dataset: Dataset) -> None:
        self.dataset = dataset
        self.page_table: PageTable = self._build()

    @abc.abstractmethod
    def _build(self) -> PageTable:
        """Partition the dataset into pages and build search structures."""

    @abc.abstractmethod
    def pages_for_region(self, region: AABB) -> np.ndarray:
        """Sorted page ids whose bounds intersect ``region``."""

    # -- batched probes ------------------------------------------------------

    def query_many(self, regions: Sequence[AABB]) -> list[QueryResult]:
        """Batched exact range queries (element-wise equal to :meth:`query`)."""
        regions = list(regions)  # tolerate one-shot iterators
        page_lists = self.pages_for_regions(regions)
        return [
            self._result_for_pages(region, pages)
            for region, pages in zip(regions, page_lists)
        ]

    # -- shared query logic --------------------------------------------------

    def query(self, region: AABB) -> QueryResult:
        """Exact range query: pages touched plus objects intersecting."""
        return self._result_for_pages(region, self.pages_for_region(region))

    def _result_for_pages(self, region: AABB, pages: np.ndarray) -> QueryResult:
        """Refine a page-level probe into the exact object result."""
        if len(pages) == 0:
            return QueryResult(np.empty(0, dtype=np.int64), pages)
        candidates = self.page_table.objects_of_pages(pages)
        lo = self.dataset.obj_lo.take(candidates, axis=0)
        hi = self.dataset.obj_hi.take(candidates, axis=0)
        mask = boxes_overlap(lo, hi, region.lo, region.hi)
        return QueryResult(np.sort(candidates[mask]), pages)

    @property
    def n_pages(self) -> int:
        return self.page_table.n_pages
