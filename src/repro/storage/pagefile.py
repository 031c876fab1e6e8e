"""Mmap-backed on-disk page store with per-slot checksums.

Everything upstream of this module treats storage as an analytic cost
counter; this is the first component that actually *persists bytes*.  A
:class:`PageFile` lays a :class:`~repro.storage.page.PageTable` out as a
fixed-slot file -- one slot per page, slot payload the page's canonical
object-id array -- so larger-than-memory experiments can serve real
pages instead of pretending RAM is a disk.

The format is deliberately boring and crash-evident:

* a single fixed-size header (magic, version, geometry) protected by its
  own CRC-32 and published atomically: the file is built under a
  temporary name and ``os.replace``-d into place, so a reader either
  sees a fully valid file or no file at all;
* fixed-size slots, each ``[crc32 | n_objects | payload | padding]``,
  with the CRC computed over the payload bytes exactly as
  :meth:`repro.storage.page.PageTable.checksum_of` does -- the page
  table stays the ground truth a delivered slot is verified against;
* torn-write detection by construction: :meth:`write_page` first stamps
  the slot's ``n_objects`` field with an in-progress sentinel and only
  restores count + CRC after the payload landed.  A writer that dies
  mid-write (power cut, ``os._exit``) leaves a slot that can never pass
  verification, so a reopening reader detects it (:meth:`scan_torn`),
  refuses to serve it (:class:`TornPageError`) and re-fetches from the
  authoritative page table (:meth:`repair_page`).

The file stores *bytes*, not *time*: simulated I/O cost still comes from
the disk model in front of it (DESIGN.md §9), so swapping the RAM
backend for a page file never perturbs metrics on a healthy file.
"""

from __future__ import annotations

import mmap
import os
import struct
import zlib
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.storage.page import PageTable

__all__ = ["PageFile", "PageFileError", "TornPageError"]

_MAGIC = b"SCOUTPF1"
_VERSION = 1
#: Header layout: magic, version, n_pages, slot_bytes, header crc32.
_HEADER = struct.Struct("<8sIQQI")
_HEADER_BYTES = 4096
#: Per-slot prefix: payload crc32, object count.
_SLOT_PREFIX = struct.Struct("<II")
#: ``n_objects`` sentinel stamped while a slot write is in flight.
_IN_PROGRESS = 0xFFFFFFFF


class PageFileError(RuntimeError):
    """The page file is missing, malformed, or geometry-incompatible."""


class TornPageError(PageFileError):
    """A slot failed checksum verification and must not be served.

    Carries the offending ``page_id`` so callers can repair exactly the
    slots that are torn and account the detection.
    """

    def __init__(self, page_id: int) -> None:
        super().__init__(f"page {page_id} failed checksum verification")
        self.page_id = int(page_id)


class PageFile:
    """Fixed-slot mmap page store over a page table's payloads.

    Open an existing file with the constructor (header is validated
    before any slot is trusted) or build one with :meth:`create`.  All
    slot reads verify the per-slot CRC; a mismatch raises
    :class:`TornPageError` rather than returning bytes that never
    existed.  Instances are context managers; :meth:`close` flushes and
    unmaps.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = Path(path)
        if not self.path.exists():
            raise PageFileError(f"page file {self.path} does not exist")
        self._file = open(self.path, "r+b")
        try:
            header = self._file.read(_HEADER_BYTES)
            if len(header) < _HEADER.size:
                raise PageFileError(f"page file {self.path} is truncated")
            magic, version, n_pages, slot_bytes, crc = _HEADER.unpack_from(header)
            if magic != _MAGIC:
                raise PageFileError(f"page file {self.path} has bad magic {magic!r}")
            if version != _VERSION:
                raise PageFileError(
                    f"page file {self.path} is version {version}, expected {_VERSION}"
                )
            if crc != zlib.crc32(header[: _HEADER.size - 4]):
                raise PageFileError(f"page file {self.path} has a corrupt header")
            expected = _HEADER_BYTES + n_pages * slot_bytes
            if os.fstat(self._file.fileno()).st_size < expected:
                raise PageFileError(f"page file {self.path} is truncated")
            self.n_pages = int(n_pages)
            self.slot_bytes = int(slot_bytes)
            self._mmap = mmap.mmap(self._file.fileno(), expected)
        except Exception:
            self._file.close()
            raise

    # -- construction -------------------------------------------------------

    @classmethod
    def create(cls, path: str | os.PathLike[str], page_table: PageTable) -> "PageFile":
        """Build a page file for the table's pages and open it.

        The file is written under ``<path>.tmp`` and atomically renamed
        into place once the header and every slot are durable, so a
        crash during creation never publishes a half-built file.
        """
        path = Path(path)
        max_objects = max(
            (page_table.page_size(p) for p in range(page_table.n_pages)), default=0
        )
        slot_bytes = _SLOT_PREFIX.size + max_objects * 8
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "wb") as fh:
            body = _HEADER.pack(_MAGIC, _VERSION, page_table.n_pages, slot_bytes, 0)
            crc = zlib.crc32(body[:-4])
            fh.write(_HEADER.pack(_MAGIC, _VERSION, page_table.n_pages, slot_bytes, crc))
            fh.write(b"\0" * (_HEADER_BYTES - _HEADER.size))
            for page_id in range(page_table.n_pages):
                payload = page_table.objects_of_page(page_id).tobytes()
                fh.write(_SLOT_PREFIX.pack(zlib.crc32(payload), len(payload) // 8))
                fh.write(payload)
                fh.write(b"\0" * (slot_bytes - _SLOT_PREFIX.size - len(payload)))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return cls(path)

    # -- slot access --------------------------------------------------------

    def _slot_offset(self, page_id: int) -> int:
        if not 0 <= page_id < self.n_pages:
            raise IndexError(f"page {page_id} out of range")
        return _HEADER_BYTES + page_id * self.slot_bytes

    def read_page(self, page_id: int) -> np.ndarray:
        """Return a slot's verified payload as an int64 array.

        Raises :class:`TornPageError` when the slot is mid-write or its
        payload does not match the stored CRC -- torn bytes are detected
        here, never served.
        """
        offset = self._slot_offset(page_id)
        crc, count = _SLOT_PREFIX.unpack_from(self._mmap, offset)
        payload_max = self.slot_bytes - _SLOT_PREFIX.size
        if count == _IN_PROGRESS or count * 8 > payload_max:
            raise TornPageError(page_id)
        start = offset + _SLOT_PREFIX.size
        payload = self._mmap[start : start + count * 8]
        if zlib.crc32(payload) != crc:
            raise TornPageError(page_id)
        return np.frombuffer(payload, dtype=np.int64)

    def verify_page(self, page_id: int) -> bool:
        """Whether a slot currently passes checksum verification."""
        try:
            self.read_page(page_id)
        except TornPageError:
            return False
        return True

    def check_table(self, page_table: PageTable) -> None:
        """Raise :class:`PageFileError` unless the file holds ``page_table``'s pages.

        A reused file must have the table's page count, and every slot
        that verifies must carry the table's checksum for its page.  A
        torn slot passes: the read path repairs it.
        """
        if self.n_pages != page_table.n_pages:
            raise PageFileError(
                f"page file {self.path} has {self.n_pages} pages, "
                f"the dataset {page_table.n_pages}"
            )
        for page_id in range(self.n_pages):
            crc = _SLOT_PREFIX.unpack_from(self._mmap, self._slot_offset(page_id))[0]
            if self.verify_page(page_id) and crc != page_table.checksum_of(page_id):
                raise PageFileError(f"page file {self.path} holds another dataset (page {page_id})")

    def scan_torn(self) -> list[int]:
        """Page ids of every slot that fails verification (reopen sweep)."""
        return [p for p in range(self.n_pages) if not self.verify_page(p)]

    def write_page(self, page_id: int, objects: np.ndarray | Iterable[int]) -> None:
        """Rewrite a slot's payload, torn-write-evidently.

        The slot is first stamped in-progress (``n_objects`` sentinel),
        then the payload lands, then count and CRC are restored, with a
        flush after each step -- dying at any intermediate point leaves
        a slot that cannot verify.
        """
        payload = np.asarray(list(objects) if not isinstance(objects, np.ndarray) else objects,
                             dtype=np.int64).tobytes()
        if len(payload) > self.slot_bytes - _SLOT_PREFIX.size:
            raise ValueError(f"payload of {len(payload)} bytes exceeds slot size")
        offset = self._slot_offset(page_id)
        _SLOT_PREFIX.pack_into(self._mmap, offset, 0, _IN_PROGRESS)
        self._mmap.flush()
        start = offset + _SLOT_PREFIX.size
        self._mmap[start : start + len(payload)] = payload
        self._mmap.flush()
        _SLOT_PREFIX.pack_into(self._mmap, offset, zlib.crc32(payload), len(payload) // 8)
        self._mmap.flush()

    def repair_page(self, page_id: int, page_table: PageTable) -> None:
        """Re-fetch a torn slot's payload from the authoritative table."""
        self.write_page(page_id, page_table.objects_of_page(page_id))

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if getattr(self, "_mmap", None) is not None:
            self._mmap.flush()
            self._mmap.close()
            self._mmap = None
        if getattr(self, "_file", None) is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "PageFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
