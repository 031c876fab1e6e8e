"""Mapping between spatial objects and disk pages.

Spatial indexes (R-tree leaves, FLAT partitions, grid buckets) decide
which objects live on which 4 KB disk page; the :class:`PageTable`
records that assignment and answers both directions of the lookup.  The
simulator charges I/O at page granularity, so everything downstream --
cache, disk model, hit-rate accounting -- speaks page ids.

Pages are stored packed: one concatenated object-id array plus CSR
offsets, so multi-page lookups (the query hot path gathers every result
page's objects per query) are a single vectorized gather instead of a
list of per-page concatenations.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Sequence

import numpy as np

from repro.util import csr_expand

__all__ = ["PageTable"]


class PageTable:
    """Immutable object-to-page assignment.

    Built once at index-construction time from a list of object-id arrays
    (one array per page, page ids are positions in the list).
    """

    def __init__(self, pages: Sequence[np.ndarray]) -> None:
        arrays: list[np.ndarray] = []
        for objects in pages:
            arr = np.asarray(objects, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError("each page must be a 1D array of object ids")
            arrays.append(arr)
        counts = np.array([len(arr) for arr in arrays], dtype=np.int64)
        self._offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self._objects = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        ).astype(np.int64, copy=False)

        max_id = int(self._objects.max()) if len(self._objects) else -1
        self._page_of_object = np.full(max_id + 1, -1, dtype=np.int64)
        owners = np.repeat(np.arange(len(arrays), dtype=np.int64), counts)
        order = np.argsort(self._objects, kind="stable")
        sorted_objects = self._objects[order]
        sorted_owners = owners[order]
        cross_page = (sorted_objects[1:] == sorted_objects[:-1]) & (
            sorted_owners[1:] != sorted_owners[:-1]
        )
        if np.any(cross_page):
            raise ValueError("an object was assigned to more than one page")
        self._page_of_object[self._objects] = owners
        self._checksums: dict[int, int] = {}

    # -- sizes ------------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return len(self._offsets) - 1

    def page_size(self, page_id: int) -> int:
        return int(self._offsets[page_id + 1] - self._offsets[page_id])

    def sizes_of_pages(self, page_ids: np.ndarray) -> np.ndarray:
        """Per-page object counts of an int64 page-id array, in input order."""
        return self._offsets[page_ids + 1] - self._offsets[page_ids]

    # -- lookups --------------------------------------------------------

    def objects_of_page(self, page_id: int) -> np.ndarray:
        """Object ids stored on a page (a read-only view)."""
        if not 0 <= page_id < self.n_pages:
            raise IndexError(f"page {page_id} out of range")
        return self._objects[self._offsets[page_id] : self._offsets[page_id + 1]]

    def objects_of_pages(self, page_ids: Iterable[int] | np.ndarray) -> np.ndarray:
        """Concatenated object ids of several pages, in page order.

        Vectorized equivalent of concatenating ``objects_of_page`` for
        each page; this is the candidate gather of
        :meth:`repro.index.base.SpatialIndex.query_many`.
        """
        page_ids = np.asarray(
            list(page_ids) if not isinstance(page_ids, np.ndarray) else page_ids,
            dtype=np.int64,
        )
        if len(page_ids) == 0:
            return np.empty(0, dtype=np.int64)
        return self._objects[csr_expand(self._offsets[page_ids], self.sizes_of_pages(page_ids))]

    # -- checksums ------------------------------------------------------

    def checksum_of(self, page_id: int) -> int:
        """CRC-32 of a page's canonical payload (its object-id array).

        The page table is the ground truth of what each page *should*
        contain, so its checksum is what delivered payloads are verified
        against at cache-insert time (read-repair: see
        :meth:`repro.storage.faults.FaultyDiskModel.verify_delivery`).
        Computed lazily and memoized -- verification only touches pages
        a fault actually tainted.
        """
        cached = self._checksums.get(page_id)
        if cached is None:
            cached = zlib.crc32(self.objects_of_page(page_id).tobytes())
            self._checksums[page_id] = cached
        return cached

    def checksums_of(self, page_ids: Iterable[int] | np.ndarray) -> list[int]:
        """Per-page checksums, in input order."""
        return [self.checksum_of(int(p)) for p in page_ids]

    def page_ids_of_objects(self, object_ids: Iterable[int] | np.ndarray) -> np.ndarray:
        """Per-object page id array (same order and length as the input)."""
        object_ids = np.asarray(
            list(object_ids) if not isinstance(object_ids, np.ndarray) else object_ids,
            dtype=np.int64,
        )
        if len(object_ids) == 0:
            return np.empty(0, dtype=np.int64)
        pages = self._page_of_object[object_ids]
        if np.any(pages < 0):
            missing = object_ids[pages < 0]
            raise KeyError(f"objects {missing[:5].tolist()} are not assigned to any page")
        return pages
