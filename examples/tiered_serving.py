"""Serving over tiered storage: miss-path mechanisms and a real page file.

Everything upstream treats storage as an analytic cost counter; the
tiered subsystem (DESIGN.md §9) adds a second cache tier between the
prefetch cache and the disk, with the miss path modeled as a pluggable
mechanism (victim buffer / miss cache / stream buffer, after the
classic SimpleScalar taxonomy), and -- with the ``mmap`` backend -- a
real checksummed on-disk page file serving actual bytes.

The script first walks the miss-path ladder over a shared hotspot
fleet, showing how each mechanism absorbs backing-store reads, then
builds an mmap page file, corrupts one slot on disk (as a torn write
or a bad sector would) and lets the store detect and repair it on the
read path.

Run:  python examples/tiered_serving.py

The full tiers grid (prefetcher x miss path x tier size, resumable and
parallel) is the sweep engine's job:

    scout-repro sweep --figure tiers --jobs 4 --out results/tiers.jsonl
"""

import tempfile
from pathlib import Path

from repro.baselines import EWMAPrefetcher
from repro.datagen import make_neuron_tissue
from repro.index import FlatIndex
from repro.sim import ServingSimulator, SimulationConfig
from repro.storage import MISS_PATHS, PageFile, StorageSpec, TieredStore
from repro.storage.disk import DiskModel

N_CLIENTS = 4
TIER_PAGES = 16


def main() -> None:
    tissue = make_neuron_tissue(n_neurons=24, seed=7)
    index = FlatIndex(tissue, fanout=16)
    print(f"Neuron tissue: {tissue.n_objects:,} objects across {index.n_pages:,} pages")
    print(
        f"{N_CLIENTS} hotspot clients, one shared cache, and a "
        f"{TIER_PAGES}-page storage tier\nin front of the disk; the miss "
        "path between tier and disk varies per row\n"
    )

    from repro.workload import multiclient_sessions

    clients = multiclient_sessions(
        tissue, n_clients=N_CLIENTS, seed=21, n_queries=25,
        volume=80_000.0, mode="hotspot", stagger=1,
    )

    print(
        f"{'miss path':>10s}{'hit rate':>10s}{'tier hits':>11s}"
        f"{'mech hits':>11s}{'backing':>9s}"
    )
    for path in MISS_PATHS:
        spec = StorageSpec(miss_path=path, tier_pages=TIER_PAGES)
        simulator = ServingSimulator(index, SimulationConfig(storage=spec))
        report = simulator.run(clients, [EWMAPrefetcher(lam=0.3) for _ in clients])
        print(
            f"{path:>10s}{100 * report.aggregate_hit_rate:>9.1f}%"
            f"{report.tier_hits:>11d}{report.miss_path_hits:>11d}"
            f"{report.tier_fills:>9d}"
        )
    print(
        "\nEach requested page resolves at exactly one layer, so tier hits\n"
        "+ mechanism hits + backing fills partition the request stream.\n"
        "The stream buffer shines on sequential runs, the victim buffer on\n"
        "re-references the small tier just evicted.\n"
    )

    # -- the mmap backend: real bytes, torn-write repair -------------------
    page_table = index.page_table
    with tempfile.TemporaryDirectory(prefix="scout-tiered-") as tmp:
        path = Path(tmp) / "pages.pf"
        PageFile.create(path, page_table).close()
        print(f"Page file: {path.stat().st_size:,} bytes for {page_table.n_pages} slots")

        # Flip a byte of slot 3's stored checksum on disk: the slots
        # are the file's last n_pages * slot_bytes bytes.
        with PageFile(path) as probe:
            slot = path.stat().st_size - (probe.n_pages - 3) * probe.slot_bytes
        with open(path, "r+b") as fh:
            fh.seek(slot)
            byte = fh.read(1)[0]
            fh.seek(slot)
            fh.write(bytes([byte ^ 0xFF]))
        with PageFile(path) as probe:
            print(f"After corrupting slot 3: torn slots = {probe.scan_torn()}")

        store = TieredStore(DiskModel(), StorageSpec(backend="mmap", path=str(path)))
        store.bind_page_table(page_table)
        store.read_pages([3])
        ts = store.tier_stats
        print(
            f"Read through the store: torn detected = {ts.torn_detected}, "
            f"repaired = {ts.torn_repaired}"
        )
        with PageFile(path) as probe:
            print(f"After read-repair: torn slots = {probe.scan_torn()}")
        store.close()
    print(
        "\nTorn bytes are never served: the checksum rejects the slot, the\n"
        "page table repairs it, and the re-read is charged as simulated\n"
        "time -- the same read-repair shape as the fault plane's."
    )


if __name__ == "__main__":
    main()
