"""Algorithm 1 — chunked parallel prefix sum ("Scan").

The paper's scan runs in three steps over ``p`` contiguous chunks:

1. **Local scan** (parallel): each processor computes the inclusive
   prefix sum of its own chunk.
2. **Carry propagation** (locked, sequential in chunk order): each
   chunk ``i > 0`` adds the (now global) last element of chunk ``i-1``
   to its own *last* element, so after this step every chunk's last
   element holds the global prefix value.
3. **Broadcast add** (parallel): each chunk ``i > 0`` adds the last
   element of chunk ``i-1`` to all of its elements *except the last*
   (already fixed in step 2).

This module provides that algorithm over any
:class:`~repro.parallel.machine.Executor`, plus serial references and
the exclusive-scan variant used to turn a degree array into CSR row
offsets.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .chunking import chunk_bounds
from .cost import Cost
from .machine import Executor, SerialExecutor, TaskContext

__all__ = [
    "prefix_sum_serial",
    "prefix_sum_parallel",
    "exclusive_from_inclusive",
]


def prefix_sum_serial(values: np.ndarray, *, dtype=np.int64) -> np.ndarray:
    """Inclusive prefix sum, serial reference (``np.cumsum``)."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError("prefix sum input must be 1-D")
    return np.cumsum(arr, dtype=dtype)


def prefix_sum_parallel(
    values: np.ndarray,
    executor: Executor | None = None,
    *,
    out: np.ndarray | None = None,
    dtype=np.int64,
) -> np.ndarray:
    """Inclusive prefix sum via the paper's three-phase chunked scan.

    Parameters
    ----------
    values:
        1-D integer array.  Not modified unless passed as *out*.
    executor:
        Any :class:`Executor`; defaults to a 1-wide serial executor
        (the paper's "serial mode").
    out:
        Optional preallocated output of matching length.  May alias
        *values* for the paper's in-place behaviour.

    Returns the output array.  Results are identical to ``np.cumsum``
    for every chunking — property-tested in
    ``tests/parallel/test_scan.py``.
    """
    executor = executor or SerialExecutor()
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError("prefix sum input must be 1-D")
    n = arr.shape[0]
    if out is None:
        vec = arr.astype(dtype, copy=True)
    else:
        if out.shape != arr.shape:
            raise ValidationError("out must match input shape")
        if out is not arr and out.base is not arr:
            np.copyto(out, arr, casting="same_kind")
        vec = out
    if n == 0:
        return vec

    bounds = chunk_bounds(n, executor.p)

    # Phase 1 — local inclusive scan per chunk (Algorithm 1, lines 2-3).
    def local_scan(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e > s:
            np.cumsum(vec[s:e], out=vec[s:e])
            ctx.charge(Cost(reads=e - s, writes=e - s, flops=e - s))

    executor.map_chunks(local_scan, range(executor.p), label="scan:local")

    # Phase 2 — locked carry propagation (lines 6-9).  Strictly
    # sequential in chunk order: chunk i reads chunk i-1's last element
    # *after* it became global, so carries accumulate left to right.
    def propagate(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if cid > 0 and e > s:
            prev_end = _last_nonempty_end(bounds, cid)
            if prev_end is not None:
                vec[e - 1] += vec[prev_end - 1]
                ctx.charge(Cost(reads=2, writes=1, flops=1))

    executor.map_chunks(propagate, range(executor.p), label="scan:carry", locked=True)

    # Phase 3 — broadcast add of the previous chunk's last element to
    # every element but the last (lines 11-13).
    def broadcast(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if cid > 0 and e > s:
            prev_end = _last_nonempty_end(bounds, cid)
            if prev_end is not None and e - 1 > s:
                vec[s : e - 1] += vec[prev_end - 1]
                ctx.charge(Cost(reads=e - s, writes=e - 1 - s, flops=e - 1 - s))

    executor.map_chunks(broadcast, range(executor.p), label="scan:broadcast")
    return vec


def _last_nonempty_end(bounds: np.ndarray, cid: int) -> int | None:
    """End offset of the nearest non-empty chunk before *cid*, if any."""
    for j in range(cid - 1, -1, -1):
        if bounds[j + 1] > bounds[j]:
            return int(bounds[j + 1])
    return None


def exclusive_from_inclusive(inclusive: np.ndarray) -> np.ndarray:
    """Turn an inclusive scan into the exclusive scan with a total slot.

    Returns an array one element longer: ``[0, inc[0], ..., inc[-1]]``.
    This is exactly the CSR ``iA`` (row offset) layout: ``iA[u]`` is the
    first edge of ``u`` and ``iA[n]`` the total edge count.
    """
    inc = np.asarray(inclusive)
    if inc.ndim != 1:
        raise ValidationError("inclusive scan must be 1-D")
    out = np.empty(inc.shape[0] + 1, dtype=inc.dtype)
    out[0] = 0
    out[1:] = inc
    return out
