"""Level-synchronous graph traversals over CSR.

Not part of the paper's algorithm list, but the standard consumers of a
CSR (and what "fast traversal of the data structure" in Section II is
for).  The frontier expansion of each BFS level is chunked across the
executor, which makes BFS an end-to-end integration test of the whole
substrate and a realistic example workload.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from .graph import CSRGraph

__all__ = ["bfs_levels", "degree_histogram"]


def bfs_levels(
    graph: CSRGraph, source: int, executor: Executor | None = None
) -> np.ndarray:
    """BFS distance from *source* to every node (-1 when unreachable).

    Each level expands the frontier in parallel chunks; the dedup/merge
    between levels is serial, mirroring the paper's chunk-then-combine
    pattern.
    """
    executor = executor or SerialExecutor()
    n = graph.num_nodes
    if not (0 <= source < n):
        raise QueryError(f"source {source} out of range [0, {n})")
    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    depth = 0
    while frontier.shape[0]:
        depth += 1
        bounds = chunk_bounds(frontier.shape[0], executor.p)

        def expand(ctx: TaskContext, cid: int):
            s, e = int(bounds[cid]), int(bounds[cid + 1])
            if e <= s:
                return np.zeros(0, dtype=np.int64)
            rows = [graph.neighbors(int(u)) for u in frontier[s:e]]
            out = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
            ctx.charge(Cost(reads=out.shape[0]))
            return np.unique(out).astype(np.int64)

        parts = executor.map_chunks(expand, range(executor.p), label="bfs:expand")

        def merge(ctx: TaskContext):
            cand = np.unique(np.concatenate(parts)) if parts else np.zeros(0, np.int64)
            fresh = cand[levels[cand] < 0]
            levels[fresh] = depth
            ctx.charge(Cost(reads=cand.shape[0], writes=fresh.shape[0]))
            return fresh

        frontier = executor.serial(merge, label="bfs:merge")
    return levels


def degree_histogram(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """(degree values, node counts) — the power-law fingerprint used to
    sanity-check the synthetic stand-ins against social-network shape."""
    deg = graph.degrees()
    if deg.size == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    values, counts = np.unique(deg, return_counts=True)
    return values.astype(np.int64), counts.astype(np.int64)
