"""Crash-recovery suite for the mmap-backed page file.

The page file's whole reason to exist is surviving an unclean writer:
its format promises that a process dying at *any* point mid-write
leaves a slot that cannot pass checksum verification, so a reopening
reader detects it, refuses to serve it, and repairs it from the
authoritative page table.  The tests here earn that promise the honest
way -- a child process really does die with ``os._exit`` in the middle
of :meth:`~repro.storage.pagefile.PageFile.write_page` (the ``_exit``
idiom of the fault plane's crash builders), and the parent then reopens
the file and walks the full detect / refuse / repair / re-serve cycle.

The healthy-file half pins the format itself: create/open round-trips,
header validation, out-of-range and oversize rejection, and the
storage=ram metric identity that keeps the golden fixtures honest.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.storage.page import PageTable
from repro.storage.pagefile import PageFile, PageFileError, TornPageError
from repro.storage.tiered import StorageSpec, TieredStore


def small_table() -> PageTable:
    return PageTable(
        [
            np.array([0, 1, 2]),
            np.array([3, 4]),
            np.array([5, 6, 7, 8]),
            np.array([9]),
        ]
    )


class TestHealthyFile:
    def test_create_then_read_roundtrips_every_page(self, tmp_path):
        table = small_table()
        with PageFile.create(tmp_path / "pages.pf", table) as pf:
            assert pf.n_pages == table.n_pages
            for page_id in range(table.n_pages):
                np.testing.assert_array_equal(
                    pf.read_page(page_id), table.objects_of_page(page_id)
                )
            assert pf.scan_torn() == []

    def test_reopen_sees_the_same_bytes(self, tmp_path):
        table = small_table()
        PageFile.create(tmp_path / "pages.pf", table).close()
        with PageFile(tmp_path / "pages.pf") as pf:
            np.testing.assert_array_equal(pf.read_page(2), table.objects_of_page(2))

    def test_missing_file_is_rejected(self, tmp_path):
        with pytest.raises(PageFileError, match="does not exist"):
            PageFile(tmp_path / "nope.pf")

    def test_corrupt_header_is_rejected(self, tmp_path):
        path = tmp_path / "pages.pf"
        PageFile.create(path, small_table()).close()
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF  # break the magic
        path.write_bytes(bytes(raw))
        with pytest.raises(PageFileError, match="bad magic"):
            PageFile(path)

    def test_truncated_file_is_rejected(self, tmp_path):
        path = tmp_path / "pages.pf"
        PageFile.create(path, small_table()).close()
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(PageFileError, match="truncated"):
            PageFile(path)

    def test_out_of_range_page_is_rejected(self, tmp_path):
        with PageFile.create(tmp_path / "pages.pf", small_table()) as pf:
            with pytest.raises(IndexError):
                pf.read_page(pf.n_pages)

    def test_oversize_payload_is_rejected(self, tmp_path):
        with PageFile.create(tmp_path / "pages.pf", small_table()) as pf:
            with pytest.raises(ValueError, match="exceeds slot size"):
                pf.write_page(0, np.arange(64, dtype=np.int64))

    def test_write_page_replaces_a_slot_verifiably(self, tmp_path):
        with PageFile.create(tmp_path / "pages.pf", small_table()) as pf:
            pf.write_page(1, np.array([40, 41], dtype=np.int64))
            np.testing.assert_array_equal(pf.read_page(1), [40, 41])
            assert pf.verify_page(1)


#: Child-process script: open the page file and die mid-write.  The
#: ``crash_after`` point is argv-selected so both tear shapes (sentinel
#: only, payload landed but checksum not restored) get a real process
#: death, not a simulated one.
_CRASH_WRITER = """
import sys
import numpy as np
from repro.storage.pagefile import PageFile

path, page_id, crash_after = sys.argv[1], int(sys.argv[2]), sys.argv[3]
pf = PageFile(path)
pf.write_page(page_id, np.array([7, 8, 9], dtype=np.int64), crash_after=crash_after)
raise SystemExit("unreachable: the writer must have died mid-write")
"""


def _crash_writer(path, page_id: int, crash_after: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", _CRASH_WRITER, str(path), str(page_id), crash_after],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr


class TestCrashRecovery:
    @pytest.mark.parametrize("crash_after", ["stamp", "payload"])
    def test_killed_writer_leaves_a_detectable_torn_slot(self, tmp_path, crash_after):
        table = small_table()
        path = tmp_path / "pages.pf"
        PageFile.create(path, table).close()
        _crash_writer(path, 2, crash_after)

        with PageFile(path) as pf:
            # The reopen sweep finds exactly the torn slot ...
            assert pf.scan_torn() == [2]
            # ... which is never served ...
            with pytest.raises(TornPageError) as excinfo:
                pf.read_page(2)
            assert excinfo.value.page_id == 2
            # ... while untouched slots still verify and serve.
            np.testing.assert_array_equal(pf.read_page(0), table.objects_of_page(0))

            # Repair re-fetches from the authoritative table; the slot
            # then serves the canonical payload again.
            pf.repair_page(2, table)
            assert pf.scan_torn() == []
            np.testing.assert_array_equal(pf.read_page(2), table.objects_of_page(2))

    def test_tiered_store_repairs_torn_slots_on_the_read_path(self, tmp_path):
        from repro.storage.disk import DiskModel

        table = small_table()
        path = tmp_path / "pages.pf"
        PageFile.create(path, table).close()
        _crash_writer(path, 1, "payload")

        store = TieredStore(DiskModel(), StorageSpec(backend="mmap", path=str(path)))
        store.bind_page_table(table)
        try:
            healthy_cost = DiskModel().read_pages([1])
            elapsed = store.read_pages([1])
            ts = store.tier_stats
            assert ts.torn_detected == 1
            assert ts.torn_repaired == 1
            # The repair charges one clean demand re-read on top of the
            # original read -- read-repair, like the fault plane's.
            assert elapsed == pytest.approx(healthy_cost + DiskModel().read_pages([1]))
            # The slot is whole again: the next read is charged normally
            # and detects nothing.
            store.read_pages([1])
            assert store.tier_stats.torn_detected == 1
            np.testing.assert_array_equal(
                store.pagefile.read_page(1), table.objects_of_page(1)
            )
        finally:
            store.close()
        assert path.exists(), "an explicit-path page file must survive close()"

    @pytest.mark.parametrize("one_shot", [list, iter], ids=["list", "iterator"])
    def test_every_requested_slot_is_verified_once(self, tmp_path, monkeypatch, one_shot):
        """``read_pages`` admits any iterable; a one-shot one must not be
        spent on the inner model before the slots are served."""
        from repro.storage.disk import DiskModel

        table = small_table()
        spec = StorageSpec(backend="mmap", path=str(tmp_path / "pages.pf"))
        store = TieredStore(DiskModel(), spec, page_table=table)
        served = []
        verify = PageFile.read_page
        monkeypatch.setattr(
            PageFile, "read_page", lambda pf, page: served.append(page) or verify(pf, page)
        )
        try:
            assert store.read_pages(one_shot([0, 1, 2])) == DiskModel().read_pages([0, 1, 2])
        finally:
            store.close()
        assert served == [0, 1, 2]


def test_ram_and_mmap_backends_are_metric_identical(tmp_path):
    """storage=ram golden fixtures stay valid for the mmap backend.

    The page file stores bytes, not time: on a healthy file the mmap
    backend's read path charges exactly what the ram backend charges, so
    every metric -- and therefore every golden fixture computed with
    storage=ram -- is backend-independent.
    """
    from repro.storage.disk import DiskModel

    table = small_table()
    spec_ram = StorageSpec(miss_path="combined", tier_pages=2)
    spec_mmap = StorageSpec(
        backend="mmap", miss_path="combined", tier_pages=2,
        path=str(tmp_path / "pages.pf"),
    )
    ram = TieredStore(DiskModel(), spec_ram, page_table=table)
    mm = TieredStore(DiskModel(), spec_mmap, page_table=table)
    try:
        for batch in ([0, 1], [1, 2], [3], [0, 1, 2, 3], []):
            assert mm.read_pages(batch) == ram.read_pages(batch)
        assert mm.stats == ram.stats
        assert mm.tier_stats == ram.tier_stats
    finally:
        mm.close()
