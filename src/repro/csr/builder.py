"""Parallel CSR construction from an edge list (paper Section III-A).

Pipeline, each stage on the supplied executor:

1. **Degree** — Algorithms 2 + 3 (:mod:`repro.csr.degree`).
2. **Offsets** — Algorithm 1's chunked prefix sum over the degree array
   gives ``iA`` (:mod:`repro.parallel.scan`).
3. **Scatter** — because the input is u-sorted, the column array ``jA``
   is the destination array itself; each processor copies its chunk
   into the output (the parallel write-out the paper performs when
   materialising the CSR).

The input is the paper's: an edge list sorted by (source, destination)
("we assume that the datasets are sorted"), so every row of the CSR is
sorted by construction.  Both builders refuse any other order with one
:class:`~repro.errors.NotSortedError` line (the check is
:func:`~repro.parallel.sort.edges_sorted`, uncharged); ``sort=True``
sorts a raw edge list first, and ``ensure_sorted`` (same home) does so
outside a builder.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import NotSortedError, ValidationError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from ..parallel.scan import exclusive_from_inclusive, prefix_sum_parallel
from ..parallel.sort import edges_sorted, ensure_sorted, sort_edges
from ..utils import min_uint_dtype, require
from .degree import degree_parallel
from .graph import CSRGraph

__all__ = ["build_csr", "build_csr_serial", "ensure_sorted", "check_edge_list"]

_NOT_SORTED = "edge list must be sorted by (source, destination) (pass sort=True to sort)"


def check_edge_list(sources, destinations, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Validate shape/dtype/range of an edge list; returns int64 arrays."""
    src = np.asarray(sources)
    dst = np.asarray(destinations)
    require(n >= 0, "node count must be non-negative")
    if src.ndim != 1 or dst.ndim != 1:
        raise ValidationError("edge arrays must be 1-D")
    if src.shape[0] != dst.shape[0]:
        raise ValidationError(
            f"sources ({src.shape[0]}) and destinations ({dst.shape[0]}) differ in length"
        )
    for name, arr in (("sources", src), ("destinations", dst)):
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"{name} must be integers, got {arr.dtype}")
        if arr.size and np.issubdtype(arr.dtype, np.signedinteger) and int(arr.min()) < 0:
            raise ValidationError(f"{name} must be non-negative")
        if arr.size and int(arr.max()) >= n:
            raise ValidationError(f"{name} id {int(arr.max())} out of range for n={n}")
    return src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)


def build_csr(
    sources,
    destinations,
    n: int,
    executor: Executor | None = None,
    *,
    weights=None,
    sort: bool = False,
    compact: bool = True,
    validate: bool = True,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an edge list, in parallel.

    Parameters
    ----------
    sources, destinations:
        Edge arrays.  Must be sorted by (source, destination) — the
        paper's input contract — unless ``sort=True``.
    n:
        Number of nodes.
    executor:
        Any :class:`Executor`; defaults to serial.  The same executor
        accumulates the simulated/wall time across all three stages.
    weights:
        Optional per-edge weights (the paper's ``vA`` array); carried
        through sorting and scattered alongside the column array.
    sort:
        Sort the edge list by (u, v) first (the charged sample sort).
    compact:
        Shrink output dtypes to the smallest that fit (uint32 indices
        for graphs under 4B nodes — the footprint the paper reports).
    validate:
        Validate ids and sortedness; disable only on trusted input.

    Duplicate edges are kept (multigraph semantics), matching the
    paper's construction which never deduplicates.
    """
    executor = executor or SerialExecutor()
    if validate:
        src, dst = check_edge_list(sources, destinations, n)
    else:
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(destinations, dtype=np.int64)
    vals = None
    if weights is not None:
        vals = np.asarray(weights)
        if vals.ndim != 1 or vals.shape[0] != src.shape[0]:
            raise ValidationError("weights must align with the edge arrays")

    if sort:
        src, dst, vals = sort_edges(src, dst, vals, executor)
    elif validate and not edges_sorted(src, dst):
        raise NotSortedError(_NOT_SORTED)

    # Stage 1 — parallel degree (Algorithms 2 + 3).
    deg = degree_parallel(src, n, executor, check_sorted=False)

    # Stage 2 — offsets via the chunked prefix sum (Algorithm 1).
    inclusive = prefix_sum_parallel(deg, executor)
    indptr = exclusive_from_inclusive(inclusive)

    # Stage 3 — parallel scatter of the column array.
    m = dst.shape[0]
    idx_dtype = min_uint_dtype(max(0, n - 1)) if compact else np.dtype(np.int64)
    indices = np.empty(m, dtype=idx_dtype)
    values = np.empty(m, dtype=vals.dtype) if vals is not None else None
    bounds = chunk_bounds(m, executor.p)

    def scatter(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e > s:
            indices[s:e] = dst[s:e]
            if values is not None:
                values[s:e] = vals[s:e]
            ctx.charge(Cost(reads=e - s, writes=(2 if values is not None else 1) * (e - s)))

    executor.parallel(
        [partial(scatter, cid=cid) for cid in range(executor.p)], label="build:scatter"
    )

    if compact:
        indptr = indptr.astype(min_uint_dtype(m))
    return CSRGraph(indptr, indices, values, validate=False)


def build_csr_serial(sources, destinations, n: int, *, sort: bool = False) -> CSRGraph:
    """One-shot numpy reference builder (no chunking, no executor).

    The correctness oracle for :func:`build_csr` and the honest p=1
    wall-clock baseline for the benches.
    """
    src, dst = check_edge_list(sources, destinations, n)
    if sort:
        src, dst = ensure_sorted(src, dst)
    elif not edges_sorted(src, dst):
        raise NotSortedError(_NOT_SORTED)
    deg = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    return CSRGraph(indptr, dst.copy(), validate=False)
