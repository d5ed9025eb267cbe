"""Algorithms 7 and 8 — edge-existence queries.

Two shapes, per Section V-B:

* :func:`batch_edge_existence` (Algorithm 7): an *array* of (u, v)
  queries is split across processors; each processor extracts the
  source row and tests membership — linearly ("scan", the paper's
  loop) or by binary search ("bisect", the extension the paper
  suggests).
* :func:`single_edge_exists` (Algorithm 8): *one* query, parallelised
  by splitting u's neighbour row itself into ``p`` chunks; "one of the
  processors will return true if the edge exists, if not all return
  false".
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from ..errors import QueryError, ValidationError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from .stores import (
    GraphStore,
    capabilities,
    locate_keys,
    neighbors_batch,
    row_decode_cost,
)

__all__ = ["batch_edge_existence", "single_edge_exists"]

Method = Literal["scan", "bisect"]

_METHODS = ("scan", "bisect")


def _membership(row: np.ndarray, v: int, method: Method) -> tuple[bool, int]:
    """(present, elements inspected) under the chosen search method."""
    if method == "scan":
        hits = np.flatnonzero(row == v)
        if hits.size:
            return True, int(hits[0]) + 1
        return False, row.shape[0]
    if method == "bisect":
        pos = int(np.searchsorted(row, v))
        steps = max(1, int(np.ceil(np.log2(row.shape[0] + 1))))
        return pos < row.shape[0] and int(row[pos]) == v, steps
    raise ValidationError(f"unknown search method {method!r}")


def batch_edge_existence(
    store: GraphStore,
    edges: Sequence[tuple[int, int]] | np.ndarray,
    executor: Executor | None = None,
    *,
    method: Method = "scan",
    rows: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Existence of every (u, v) query, chunked over processors.

    Accepts a sequence of pairs or an ``(m, 2)`` array; returns a bool
    array in query order.

    Each chunk runs one bulk row fetch (:func:`neighbors_batch`) over
    the chunk's *distinct* sources — hub-skewed workloads repeat heavy
    rows, so deduplicating bounds the decode at one pass over the
    touched rows — and one vectorised membership test over the
    concatenated rows: shifting distinct row *j* by ``j * n`` makes the
    flat payload globally sorted, so a single ``searchsorted`` resolves
    every query at once.  Rows that are *not* internally sorted are
    legal (``build_csr`` only enforces source order), so each chunk
    first checks the shifted concatenation is non-decreasing — which,
    because the per-row key ranges are disjoint, holds exactly when
    every fetched row is sorted — and otherwise answers its queries
    through the scalar :func:`_membership` over the already-decoded
    rows.  Results and cost charges match the per-query scalar path
    exactly either way — every query is still billed its own row
    decode, "scan" still counts elements up to the first hit, "bisect"
    the binary-search step bound.

    **Prefetched rows.**  *rows* is ``(sources, flat, offsets)`` as
    :func:`~repro.query.neighbors.batch_neighbors` hands back for its
    ``prefetch``: rows of this store, already fetched, for strictly
    increasing *sources*.  A chunk whose every source is among them
    runs the same sortedness check and keyed ``searchsorted`` straight
    on that buffer and reads no store; any other chunk fetches its own
    distinct sources as if no rows were given (in the serve loop the
    prefix covers every source, so ``kernel:edges`` of a mixed batch
    contains no store read).  The :class:`Cost` charged is the same
    either way — per-query decode, inspected elements — except that a
    chunk served from *rows* drains no ``page_touches``: the kernel
    that fetched them already charged those pages.
    """
    executor = executor or SerialExecutor()
    caps = capabilities(store)
    if method not in _METHODS:
        raise ValidationError(f"unknown search method {method!r}")
    qs = np.asarray(edges, dtype=np.int64)
    if qs.ndim != 2 or (qs.size and qs.shape[1] != 2):
        raise QueryError("edge queries must be an (m, 2) array of pairs")
    n = store.num_nodes
    if qs.size and (int(qs.min()) < 0 or int(qs.max()) >= n):
        raise QueryError(f"query ids must lie in [0, {n})")
    if rows is not None:
        sources, held_flat, held_offs = rows
        sources = np.asarray(sources, dtype=np.int64)
        if (
            sources.ndim != 1
            or held_offs.shape != (sources.shape[0] + 1,)
            or int(held_offs[-1]) != held_flat.shape[0]
            or not bool(np.all(sources[1:] > sources[:-1]))
        ):
            raise QueryError(
                "prefetched rows must be (strictly increasing sources, "
                "flat, offsets) with one row per source"
            )
        if sources.size == 0:
            rows = None

    out = np.zeros(qs.shape[0], dtype=bool)
    bounds = chunk_bounds(qs.shape[0], executor.p)

    def run_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        decode_units = 0.0
        inspected = 0
        pages = 0.0
        if e > s:
            covered = False
            if rows is not None:
                uidx, found = locate_keys(sources, qs[s:e, 0])
                covered = bool(found.all())
            if covered:
                flat, offs = held_flat, held_offs
            else:
                uniq, uidx = np.unique(qs[s:e, 0], return_inverse=True)
                flat, offs = neighbors_batch(store, uniq, caps)
                if caps.counts_page_touches:
                    pages = float(store.take_page_touches())
            counts_u = np.diff(offs)
            counts_q = counts_u[uidx]
            # billed as if each query decoded its own row, like the
            # scalar path — the dedup is a wall-clock win only
            decode_units = row_decode_cost(store, int(counts_q.sum()), caps)
            # disjoint per-row key ranges keep the concatenation sorted
            # — provided each row is itself sorted
            keyed = flat.astype(np.int64) + np.repeat(
                np.arange(counts_u.shape[0], dtype=np.int64) * n, counts_u
            )
            if keyed.size > 1 and bool(np.any(keyed[1:] < keyed[:-1])):
                # some row is internally unsorted: searchsorted would
                # be wrong, so answer each query with the scalar
                # membership over the rows already decoded above
                steps_sum = 0
                for i in range(e - s):
                    j = int(uidx[i])
                    row = flat[offs[j] : offs[j + 1]]
                    present_i, steps_i = _membership(row, int(qs[s + i, 1]), method)
                    out[s + i] = present_i
                    steps_sum += steps_i
                inspected = steps_sum
            else:
                keys = qs[s:e, 1] + uidx * n
                pos = np.searchsorted(keyed, keys, side="left")
                if keyed.size:
                    hit = keyed[np.minimum(pos, keyed.size - 1)] == keys
                    present = (pos < keyed.size) & hit
                else:
                    present = np.zeros(e - s, dtype=bool)
                out[s:e] = present
                if method == "scan":
                    steps = np.where(present, pos - offs[:-1][uidx] + 1, counts_q)
                else:  # bisect
                    steps = np.maximum(
                        1, np.ceil(np.log2(counts_q + 1)).astype(np.int64)
                    )
                inspected = int(steps.sum())
        ctx.charge(
            Cost(
                reads=2 * (e - s) + inspected,
                writes=e - s,
                bit_ops=decode_units,
                page_touches=pages,
            )
        )

    executor.parallel(
        [_bind(run_chunk, cid) for cid in range(executor.p)],
        label=f"query:edges-{method}",
    )
    return out


def single_edge_exists(
    store: GraphStore,
    u: int,
    v: int,
    executor: Executor | None = None,
    *,
    method: Method = "scan",
) -> bool:
    """Algorithm 8: split u's neighbour row across processors.

    The row is extracted once (serial, charged), then each processor
    searches its own slice; any hit wins.
    """
    executor = executor or SerialExecutor()
    n = store.num_nodes
    if not (0 <= u < n and 0 <= v < n):
        raise QueryError(f"edge ({u}, {v}) out of range for n={n}")

    def extract(ctx: TaskContext):
        caps = capabilities(store)
        row = store.neighbors(u)
        pages = float(store.take_page_touches()) if caps.counts_page_touches else 0.0
        ctx.charge(
            Cost(
                bit_ops=row_decode_cost(store, row.shape[0], caps),
                page_touches=pages,
            )
        )
        return row

    row = executor.serial(extract, label="query:single-extract")
    bounds = chunk_bounds(row.shape[0], executor.p)
    found = np.zeros(executor.p, dtype=bool)

    def search_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e <= s:
            return
        present, steps = _membership(row[s:e], v, method)
        found[cid] = present
        ctx.charge(Cost(reads=steps, flops=steps))

    executor.parallel(
        [_bind(search_chunk, cid) for cid in range(executor.p)],
        label=f"query:single-{method}",
    )
    return bool(found.any())


def _bind(fn, cid: int):
    def task(ctx: TaskContext):
        return fn(ctx, cid)

    return task
