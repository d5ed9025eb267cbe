"""Parallel execution substrate: executors, chunking, scan, sort.

The paper's machine is a 32-core shared-memory box; ours is whatever
executes the :class:`Executor` interface — a serial inliner, a thread
pool, or the :class:`SimulatedMachine` whose clock reproduces the
processor sweeps of Section VI.  See DESIGN.md §1 and §4.
"""

from .chunking import (
    Chunk,
    aligned_chunks,
    balance_ratio,
    chunk_bounds,
    edge_balanced_row_bounds,
    even_chunks,
)
from .cost import Cost, CostAccumulator, CostModel, DEFAULT_COST_MODEL
from .machine import (
    Executor,
    SerialExecutor,
    SimulatedMachine,
    TaskContext,
    ThreadExecutor,
)
from .sort import parallel_sort
from .scan import (
    exclusive_from_inclusive,
    prefix_sum_parallel,
    prefix_sum_serial,
)

__all__ = [
    "Chunk",
    "aligned_chunks",
    "balance_ratio",
    "chunk_bounds",
    "edge_balanced_row_bounds",
    "even_chunks",
    "Cost",
    "CostAccumulator",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "Executor",
    "SerialExecutor",
    "SimulatedMachine",
    "TaskContext",
    "ThreadExecutor",
    "exclusive_from_inclusive",
    "prefix_sum_parallel",
    "prefix_sum_serial",
    "parallel_sort",
]
