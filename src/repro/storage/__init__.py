"""Simulated storage stack: pages, disk cost model, prefetch cache.

The paper's experiments run against a 4-disk SAS array with 4 KB pages.
Per the substitution rule in DESIGN.md we replace the physical array
with a deterministic cost model: each page read charges seek/rotational
latency (amortized across stripes) plus transfer time.  The prefetch
cache is a page-granular LRU with the 4 GB budget of the paper scaled to
the synthetic datasets.
"""

from repro.storage.page import PageTable
from repro.storage.disk import DiskModel
from repro.storage.cache import PrefetchCache
from repro.storage.faults import CircuitBreaker, FaultPlan, FaultyDiskModel, ReadFailure
from repro.storage.pagefile import PageFile, PageFileError, TornPageError
from repro.storage.stats import IOStats
from repro.storage.sharded import (
    PARTITIONS,
    ShardedCache,
    ShardSpec,
    make_sharded_cache,
)
from repro.storage.tiered import (
    MISS_PATHS,
    STORAGE_BACKENDS,
    StorageSpec,
    TieredStore,
    TierStats,
)

__all__ = [
    "MISS_PATHS",
    "PARTITIONS",
    "STORAGE_BACKENDS",
    "CircuitBreaker",
    "DiskModel",
    "FaultPlan",
    "FaultyDiskModel",
    "IOStats",
    "PageFile",
    "PageFileError",
    "PageTable",
    "PrefetchCache",
    "ReadFailure",
    "ShardSpec",
    "ShardedCache",
    "StorageSpec",
    "TierStats",
    "TieredStore",
    "TornPageError",
    "make_sharded_cache",
]
