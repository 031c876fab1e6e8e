"""Common interface of the spatial indexes.

An index partitions the dataset's objects into disk pages (4 KB, 87
objects in the paper's configuration) and answers axis-aligned range
queries with both the matching object ids and the page ids that must be
fetched to produce them.  The simulator charges I/O for the *pages*; the
prefetchers reason about the *objects*.

Every index answers *batched* probes -- ``pages_for_regions`` and
:meth:`SpatialIndex.query_many` -- so callers that fan one simulated
query into dozens of small region probes (the incremental prefetch
plan, SCOUT-OPT's gap walk, the tick's probe streams, a whole walk's
queries) amortize the traversal over one vectorized pass.  There is
no second descent for one region: :meth:`SpatialIndex.pages_for_region`
is a batch of one, as :meth:`SpatialIndex.query` is.
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

    # -- range queries --------------------------------------------------------

    def query_many(self, regions: Sequence[AABB] | np.ndarray) -> list[QueryResult]:
        """Exact range queries: pages touched plus objects intersecting, per region.

        ``regions`` is an ``AABB`` sequence (any iterable) or packed
        ``(n, 2, 3)`` corners.  One probe pass finds every region's
        pages; one refinement pass then gathers all their objects (one
        CSR expand), tests each row against its own region's corners
        (one ``boxes_overlap``) and splits the survivors back by region
        (one ``searchsorted``).
        """
        if not isinstance(regions, np.ndarray):
            regions = list(regions)  # tolerate one-shot iterators
        if not len(regions):
            return []
        page_lists = self.pages_for_regions(regions)
        qlo, qhi = region_corners(regions)
        table = self.page_table
        pages = np.concatenate(page_lists)
        candidates = table.objects_of_pages(pages)
        # Each candidate row's region: pages repeat their region's id,
        # objects their page's.
        n_regions = len(page_lists)
        page_region = np.repeat(
            np.arange(n_regions, dtype=np.int64), [len(p) for p in page_lists]
        )
        row_region = np.repeat(page_region, table.sizes_of_pages(pages))
        mask = boxes_overlap(
            self.dataset.obj_lo.take(candidates, axis=0),
            self.dataset.obj_hi.take(candidates, axis=0),
            qlo.take(row_region, axis=0),
            qhi.take(row_region, axis=0),
        )
        hits, hit_region = candidates[mask], row_region[mask]
        cuts = np.searchsorted(hit_region, np.arange(n_regions + 1)).tolist()
        return [
            QueryResult(np.sort(hits[a:b]), region_pages)
            for a, b, region_pages in zip(cuts[:-1], cuts[1:], page_lists)
        ]

    def query(self, region: AABB) -> QueryResult:
        """One region's :meth:`query_many` answer."""
        return self.query_many([region])[0]

    @property
    def n_pages(self) -> int:
        return self.page_table.n_pages
