"""Row-wise sparse matrix-matrix multiplication on CSR ([28] extension).

Reference [28] (the source of ``GetRowFromCSR``) studies matrix-matrix
multiplication directly on compressed structures.  This module provides
the row-parallel SpGEMM it implies: ``C[i] = union/sum over k in A[i]
of B[k]``, chunked over node ranges on any executor.  Two semirings:

* boolean — ``C`` has an edge (i, j) iff a length-2 path i→k→j exists
  (the "friends of friends" primitive of the motivating social-network
  queries);
* counting — ``C``'s value array holds the number of such paths.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from .graph import CSRGraph

__all__ = ["spgemm", "spgemm_bool", "spgemm_count", "two_hop_neighbors"]


def _row_products(a: CSRGraph, b: CSRGraph, lo: int, hi: int, counting: bool):
    """Per-row products for rows [lo, hi): (indptr piece, indices, values)."""
    out_indices: list[np.ndarray] = []
    out_values: list[np.ndarray] = []
    row_sizes = np.zeros(hi - lo, dtype=np.int64)
    flops = 0
    for i in range(lo, hi):
        mids = a.neighbors(i)
        if mids.shape[0] == 0:
            continue
        # gather all of B's rows for the middle nodes at once
        starts = b.indptr[mids]
        stops = b.indptr[np.asarray(mids) + 1]
        total = int((stops - starts).sum())
        flops += total
        if total == 0:
            continue
        gathered = np.concatenate(
            [b.indices[s:e] for s, e in zip(starts.tolist(), stops.tolist())]
        )
        if counting:
            cols, counts = np.unique(gathered, return_counts=True)
            out_values.append(counts.astype(np.int64))
        else:
            cols = np.unique(gathered)
        out_indices.append(cols.astype(np.int64))
        row_sizes[i - lo] = cols.shape[0]
    indices = (
        np.concatenate(out_indices) if out_indices else np.zeros(0, dtype=np.int64)
    )
    values = (
        np.concatenate(out_values)
        if counting and out_values
        else (np.zeros(0, dtype=np.int64) if counting else None)
    )
    return row_sizes, indices, values, flops


def spgemm(
    a: CSRGraph,
    b: CSRGraph,
    executor: Executor | None = None,
    *,
    counting: bool = False,
) -> CSRGraph:
    """``C = A @ B`` on the boolean (default) or counting semiring."""
    if a.num_nodes != b.num_nodes:
        raise ValidationError("operand node counts must match")
    executor = executor or SerialExecutor()
    n = a.num_nodes
    bounds = chunk_bounds(n, executor.p)

    def chunk_task(ctx: TaskContext, cid: int):
        lo, hi = int(bounds[cid]), int(bounds[cid + 1])
        if hi <= lo:
            return None
        sizes, idx, vals, flops = _row_products(a, b, lo, hi, counting)
        ctx.charge(Cost(reads=flops, writes=idx.shape[0], flops=flops))
        return sizes, idx, vals

    parts = executor.map_chunks(chunk_task, range(executor.p), label="spgemm:rows")

    def assemble(ctx: TaskContext):
        all_sizes = np.zeros(n, dtype=np.int64)
        idx_parts, val_parts = [], []
        for cid, part in enumerate(parts):
            if part is None:
                continue
            sizes, idx, vals = part
            lo = int(bounds[cid])
            all_sizes[lo : lo + sizes.shape[0]] = sizes
            idx_parts.append(idx)
            if counting:
                val_parts.append(vals)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(all_sizes, out=indptr[1:])
        indices = (
            np.concatenate(idx_parts) if idx_parts else np.zeros(0, dtype=np.int64)
        )
        values = np.concatenate(val_parts) if counting and val_parts else None
        ctx.charge(Cost(reads=indices.shape[0], writes=indices.shape[0]))
        return CSRGraph(indptr, indices, values, validate=False)

    return executor.serial(assemble, label="spgemm:assemble")


def spgemm_bool(a: CSRGraph, b: CSRGraph, executor: Executor | None = None) -> CSRGraph:
    """``A @ B`` on the boolean semiring (edge pattern only)."""
    return spgemm(a, b, executor, counting=False)


def spgemm_count(a: CSRGraph, b: CSRGraph, executor: Executor | None = None) -> CSRGraph:
    """``A @ B`` counting parallel paths (values hold path counts)."""
    return spgemm(a, b, executor, counting=True)


def two_hop_neighbors(
    graph: CSRGraph, u: int, executor: Executor | None = None
) -> np.ndarray:
    """Distinct nodes reachable in exactly two hops from *u*.

    A single-row SpGEMM — the "acquaintances of my acquaintances" query
    from the paper's introduction, parallelised over *u*'s neighbours.
    """
    executor = executor or SerialExecutor()
    mids = graph.neighbors(u)
    bounds = chunk_bounds(mids.shape[0], executor.p)

    def gather(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e <= s:
            return np.zeros(0, dtype=np.int64)
        rows = [graph.neighbors(int(k)) for k in mids[s:e]]
        got = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
        ctx.charge(Cost(reads=got.shape[0]))
        return np.unique(got).astype(np.int64)

    parts = executor.map_chunks(gather, range(executor.p), label="twohop:gather")

    def combine(ctx: TaskContext):
        merged = np.unique(np.concatenate(parts)) if parts else np.zeros(0, np.int64)
        ctx.charge(Cost(reads=sum(p.shape[0] for p in parts)))
        return merged.astype(np.int64)

    return executor.serial(combine, label="twohop:combine")
