"""Execution simulator for guided query sequences.

Implements the paper's Figure-2 resource timeline: each query is served
from the prefetch cache with residual I/O for misses; while the user
analyzes the result (the prefetch window, ``ratio x`` the cold-read
time), the prediction computation runs and the predicted locations are
prefetched incrementally until the window closes.
"""

from repro.sim.engine import QuerySession, SimulationConfig, SimulationEngine
from repro.sim.metrics import (
    AggregateMetrics,
    ClientMetrics,
    QueryRecord,
    SequenceMetrics,
    ServeReport,
    aggregate,
)
from repro.sim.experiment import ExperimentResult, run_experiment
from repro.sim.serve import ServingSimulator
from repro.sim.results import (
    CellResult,
    CompactReport,
    MergeReport,
    ResultStore,
    ShardedResultStore,
    cell_key,
    merge_stores,
    shard_of,
    shard_store_path,
)
from repro.sim.runner import (
    CellSpec,
    CellTimeoutError,
    DatasetSpec,
    ExperimentMatrix,
    IndexSpec,
    ParallelRunner,
    PrefetcherSpec,
    RunReport,
    WorkloadSpec,
    cached_dataset,
    run_cell,
    run_serving_cell,
)

__all__ = [
    "AggregateMetrics",
    "CellResult",
    "CellSpec",
    "CellTimeoutError",
    "ClientMetrics",
    "CompactReport",
    "DatasetSpec",
    "ExperimentMatrix",
    "ExperimentResult",
    "IndexSpec",
    "MergeReport",
    "ParallelRunner",
    "PrefetcherSpec",
    "QueryRecord",
    "QuerySession",
    "ResultStore",
    "RunReport",
    "SequenceMetrics",
    "ServeReport",
    "ServingSimulator",
    "ShardedResultStore",
    "SimulationConfig",
    "SimulationEngine",
    "WorkloadSpec",
    "aggregate",
    "cached_dataset",
    "cell_key",
    "merge_stores",
    "run_cell",
    "run_experiment",
    "run_serving_cell",
    "shard_of",
    "shard_store_path",
]
