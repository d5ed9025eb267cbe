"""Algorithms 2 and 3 — parallel degree computation over a sorted edge list.

The source array of a (u-sorted) edge list is split into ``p`` chunks.
Each processor run-length-encodes its chunk; the count of the chunk's
*first* node goes into ``globalTempDegree[pid]`` (that node's run may
have started in the previous chunk), every other node's count is
written directly into ``globalDegArray`` — safe because a node that
*starts* inside a chunk starts inside exactly one chunk.  A final
serial merge adds each ``globalTempDegree[pid]`` back onto its node
(Algorithm 3), handling heavy-hitter nodes that span several chunks:
every middle chunk contributes only a temp entry and the merge
accumulates them all.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotSortedError, ValidationError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from ..utils import is_sorted, require

__all__ = ["degree_serial", "degree_parallel", "run_length_counts"]


def degree_serial(sources: np.ndarray, n: int) -> np.ndarray:
    """Reference degree array: ``np.bincount`` (input need not be sorted)."""
    src = np.asarray(sources)
    require(n >= 0, "node count must be non-negative")
    if src.size and int(src.max()) >= n:
        raise ValidationError(f"source id {int(src.max())} out of range for n={n}")
    return np.bincount(src, minlength=n).astype(np.int64)


def run_length_counts(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run-length encode a sorted chunk: (distinct nodes, their counts).

    This is the vectorised form of Algorithm 2's "count consecutive
    occurrences" loop.
    """
    if chunk.size == 0:
        return chunk[:0], np.zeros(0, dtype=np.int64)
    boundaries = np.flatnonzero(chunk[1:] != chunk[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [chunk.shape[0]]))
    return chunk[starts], (ends - starts).astype(np.int64)


def degree_parallel(
    sources: np.ndarray,
    n: int,
    executor: Executor | None = None,
    *,
    check_sorted: bool = True,
) -> np.ndarray:
    """Degree array of a u-sorted edge list via Algorithms 2 + 3.

    Parameters
    ----------
    sources:
        Source node of every edge, sorted non-decreasing (the paper's
        standing assumption; violations raise :class:`NotSortedError`
        unless ``check_sorted=False``).
    n:
        Number of nodes; ids must lie in ``range(n)``.
    executor:
        Any :class:`Executor`; defaults to serial.

    Returns ``int64`` degrees, identical to ``np.bincount`` — property
    tested against it for random graphs and chunkings.
    """
    executor = executor or SerialExecutor()
    src = np.asarray(sources)
    require(n >= 0, "node count must be non-negative")
    if src.ndim != 1:
        raise ValidationError("sources must be 1-D")
    if src.size and int(src.max()) >= n:
        raise ValidationError(f"source id {int(src.max())} out of range for n={n}")
    if check_sorted and not is_sorted(src):
        raise NotSortedError("edge list must be sorted by source node")

    m = src.shape[0]
    p = executor.p
    bounds = chunk_bounds(m, p)
    global_deg = np.zeros(n, dtype=np.int64)
    temp_deg = np.zeros(p, dtype=np.int64)
    first_node = np.full(p, -1, dtype=np.int64)

    # Algorithm 2 — per-chunk counting.
    def count_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e <= s:
            return
        chunk = src[s:e]
        nodes, counts = run_length_counts(chunk)
        # first node's count is provisional: its run may extend from the
        # previous chunk, so it goes to the temp array (Algorithm 2).
        temp_deg[cid] = counts[0]
        first_node[cid] = nodes[0]
        if nodes.shape[0] > 1:
            global_deg[nodes[1:]] = counts[1:]
        ctx.charge(Cost(reads=e - s, writes=nodes.shape[0], flops=e - s))

    executor.map_chunks(count_chunk, range(p), label="degree:count")

    # Algorithm 3 — serial merge of the temp degrees.  O(p) work.
    def merge(ctx: TaskContext):
        for cid in range(p):
            node = int(first_node[cid])
            if node >= 0:
                global_deg[node] += temp_deg[cid]
        ctx.charge(Cost(reads=2 * p, writes=p, flops=p))

    executor.serial(merge, label="degree:merge")
    return global_deg
