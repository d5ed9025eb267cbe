"""Chunked sparse matrix-vector product and PageRank.

SpMV is the canonical CSR consumer ("fast traversal of the data
structure", Section II): ``y[u] = Σ_v∈N(u) x[v]``.  Row ranges are
chunked across the executor — embarrassingly parallel reads against a
shared input vector, disjoint writes — and PageRank runs power
iteration on top, giving the examples a realistic end-to-end workload
and the simulator another scaling surface.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..parallel.chunking import chunk_bounds, edge_balanced_row_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from ..utils import require
from .graph import CSRGraph

__all__ = ["spmv", "pagerank"]


def spmv(
    graph: CSRGraph,
    x: np.ndarray,
    executor: Executor | None = None,
    *,
    out: np.ndarray | None = None,
    balance: str = "edges",
) -> np.ndarray:
    """``y = A @ x`` over the graph's adjacency (weights if present).

    Chunked by row range; identical to ``graph.to_scipy() @ x``.

    ``balance`` picks the partitioner: ``"edges"`` (default) cuts row
    ranges at equal *edge* counts so hub rows don't pile onto one
    processor — essential on power-law graphs; ``"nodes"`` splits node
    ranges evenly (the naive choice, kept for the scaling ablation).
    """
    executor = executor or SerialExecutor()
    vec = np.asarray(x, dtype=np.float64)
    n = graph.num_nodes
    if vec.shape != (n,):
        raise ValidationError(f"vector must have shape ({n},), got {vec.shape}")
    y = out if out is not None else np.zeros(n, dtype=np.float64)
    if y.shape != (n,):
        raise ValidationError("out must match the node count")
    indptr = graph.indptr
    indices = graph.indices
    weights = graph.values
    if balance == "edges":
        bounds = edge_balanced_row_bounds(indptr, executor.p)
    elif balance == "nodes":
        bounds = chunk_bounds(n, executor.p)
    else:
        raise ValidationError(f"unknown balance strategy {balance!r}")

    def rows(ctx: TaskContext, cid: int):
        lo, hi = int(bounds[cid]), int(bounds[cid + 1])
        if hi <= lo:
            return
        start, stop = int(indptr[lo]), int(indptr[hi])
        gathered = vec[indices[start:stop]]
        if weights is not None:
            gathered = gathered * weights[start:stop]
        # segmented sum over the chunk's rows
        local_ptr = np.asarray(indptr[lo : hi + 1], dtype=np.int64) - start
        sums = np.add.reduceat(
            np.concatenate((gathered, [0.0])), np.minimum(local_ptr[:-1], gathered.shape[0])
        )
        # reduceat quirk: empty rows replicate the next value; zero them
        empty = local_ptr[:-1] == local_ptr[1:]
        sums = sums[: hi - lo]
        sums[empty] = 0.0
        y[lo:hi] = sums
        ctx.charge(Cost(reads=2 * (stop - start), writes=hi - lo, flops=stop - start))

    executor.map_chunks(rows, range(executor.p), label="spmv")
    return y


def pagerank(
    graph: CSRGraph,
    executor: Executor | None = None,
    *,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> np.ndarray:
    """Power-iteration PageRank over the (out-edge) CSR.

    Dangling mass is redistributed uniformly; matches
    ``networkx.pagerank`` to ``tol`` on every test graph.
    """
    require(0.0 < damping < 1.0, "damping must be in (0, 1)")
    require(tol > 0 and max_iter >= 1, "tol and max_iter must be positive")
    executor = executor or SerialExecutor()
    n = graph.num_nodes
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    out_deg = graph.degrees().astype(np.float64)
    dangling = out_deg == 0
    # transpose once: rank flows along edges, so we need in-edges per node
    from .transpose import transpose_csr

    transpose = transpose_csr(graph, executor)
    if transpose.values is not None:
        # rank splits by out-degree regardless of weights
        transpose = CSRGraph(
            transpose.indptr, transpose.indices, validate=False
        )

    rank = np.full(n, 1.0 / n, dtype=np.float64)
    contrib = np.empty(n, dtype=np.float64)
    for _ in range(max_iter):
        np.divide(rank, out_deg, out=contrib, where=~dangling)
        contrib[dangling] = 0.0
        new_rank = spmv(transpose, contrib, executor)
        dangling_mass = float(rank[dangling].sum())
        new_rank *= damping
        new_rank += (1.0 - damping + damping * dangling_mass) / n
        delta = float(np.abs(new_rank - rank).sum())
        rank = new_rank
        if delta < tol:
            break
    return rank
