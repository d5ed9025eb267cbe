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

#: Elements of a resident row *per query on it* from which it is searched
#: in place, not copied: the measured crossover of a ``searchsorted`` call
#: per query (~1.5 us) against ~4 passes over the row (~1.7 ns/element).
_IN_PLACE_MIN = 512


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


def _searchable(rows, extra, uidx):
    """What the search of queries *uidx* (row index per query) needs of
    a fetch: each row's length, its length in the keyed payload (0: it
    stays out; the same array when none does), that payload, a row
    getter, and whether every row is sorted (``None``: not known yet).
    A decode buffer ``(flat, offsets)``, every element already paid
    for, is the payload as it stands; of a ``resident_rows`` store's
    ``(rows, all_sorted)`` only rows cheaper to copy than to search
    once per query are joined."""
    if isinstance(rows, np.ndarray):
        counts = np.diff(extra)
        return counts, counts, rows, lambda j: rows[extra[j] : extra[j + 1]], None
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    wanted = np.bincount(uidx, minlength=counts.shape[0])
    lens = np.where(counts < _IN_PLACE_MIN * wanted, counts, 0)
    parts = [rows[j] for j in np.flatnonzero(lens).tolist()]
    short = np.concatenate(parts) if parts else lens[:0]
    return counts, lens, short, rows.__getitem__, extra


def batch_edge_existence(
    store: GraphStore,
    edges: Sequence[tuple[int, int]] | np.ndarray,
    executor: Executor | None = None,
    *,
    method: Method = "scan",
    rows: tuple | None = None,
) -> np.ndarray:
    """Existence of every (u, v) query, chunked over processors.

    Accepts a sequence of pairs or an ``(m, 2)`` array; returns a bool
    array in query order.

    Each chunk fetches the rows of its *distinct* sources once and
    answers every query inside its source's row.  Rows in one payload —
    a :func:`neighbors_batch` decode buffer, or the short rows of a
    ``resident_rows`` store joined (see :func:`_searchable`) — are
    resolved by one ``searchsorted``: row *j* shifted by ``j * n`` keeps
    the payload sorted.  A long resident row is binary-searched where it
    lies, so a chunk of cache hits costs its queries, not the elements
    of the hub rows it touches.  Unsorted rows are legal (``build_csr``
    only enforces source order) — the keyed payload of a decode buffer
    is checked, a ``resident_rows`` store has known since insert — and
    a chunk holding one answers through the scalar :func:`_membership`.
    Results and cost charges match the per-query scalar path exactly
    either way — every query is still billed its own row decode, "scan"
    still counts elements up to the first hit, "bisect" the
    binary-search step bound.

    **Prefetched rows.**  *rows* is what
    :func:`~repro.query.neighbors.batch_neighbors` hands back for its
    ``prefetch`` — ``(sources, flat, offsets)``, or ``(sources, rows,
    all_sorted)`` from a ``resident_rows`` store: rows of this store,
    already fetched, for strictly increasing *sources*.  A chunk whose
    every source is among them searches those rows and reads no store;
    any other chunk fetches its own distinct sources as if no rows were
    given (in the serve loop the prefix covers every source, so
    ``kernel:edges`` of a mixed batch contains no store read).  The
    :class:`Cost` charged is the same either way — per-query decode,
    inspected elements — except that a chunk served from *rows* drains
    no ``page_touches``: the kernel that fetched them already charged
    those pages.
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
    held = None
    if rows is not None:
        sources, held, extra = rows
        sources = np.asarray(sources, dtype=np.int64)
        flat_form = isinstance(held, np.ndarray)
        if (
            sources.ndim != 1
            or not bool(np.all(sources[1:] > sources[:-1]))
            or (not flat_form and len(held) != sources.shape[0])
            or (flat_form and (extra.shape != (sources.shape[0] + 1,)
                               or int(extra[-1]) != held.shape[0]))
        ):
            raise QueryError(
                "prefetched rows must be (strictly increasing sources, "
                "flat, offsets) with one row per source"
            )
        if sources.size == 0:
            held = None

    out = np.zeros(qs.shape[0], dtype=bool)
    bounds = chunk_bounds(qs.shape[0], executor.p)

    def run_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        decode_units = 0.0
        inspected = 0
        pages = 0.0
        if e > s:
            us, vs = qs[s:e, 0], qs[s:e, 1]
            covered = False
            if held is not None:
                uidx, found = locate_keys(sources, us)
                covered = bool(found.all())
            if covered:
                fetched = held, extra
            else:
                uniq, uidx = np.unique(us, return_inverse=True)
                if caps.resident_rows:
                    fetched = store.neighbor_rows(uniq)
                else:
                    fetched = neighbors_batch(store, uniq, caps)
                if caps.counts_page_touches:
                    pages = float(store.take_page_touches())
            counts_u, lens, short, row_at, all_sorted = _searchable(*fetched, uidx)
            counts_q = counts_u[uidx]
            # billed as if each query decoded its own row, like the
            # scalar path — the dedup is a wall-clock win only
            decode_units = row_decode_cost(store, int(counts_q.sum()), caps)
            # disjoint per-row key ranges keep the payload sorted —
            # provided each row is (a decode buffer's are checked here)
            keyed = short.astype(np.int64) + np.repeat(
                np.arange(lens.shape[0]) * n, lens
            )
            if all_sorted is None:
                all_sorted = not bool(np.any(keyed[1:] < keyed[:-1]))
            if not all_sorted:
                # some row is internally unsorted: a binary search would
                # be wrong, so answer each query with the scalar
                # membership over the rows already fetched above
                for i, j in enumerate(uidx.tolist()):
                    out[s + i], steps_i = _membership(row_at(j), int(vs[i]), method)
                    inspected += steps_i
            else:
                keys = vs + uidx * n
                pos = np.searchsorted(keyed, keys, side="left")
                if keyed.size:
                    hit = keyed[np.minimum(pos, keyed.size - 1)] == keys
                    present = (pos < keyed.size) & hit
                else:
                    present = np.zeros(e - s, dtype=bool)
                if method == "scan":
                    pos -= (np.cumsum(lens) - lens)[uidx]  # now within the row
                if lens is not counts_u:
                    # rows left out of the payload: O(log degree) each
                    wanted = vs.astype(caps.row_dtype)
                    for i in np.flatnonzero(counts_q > lens[uidx]).tolist():
                        row, v = row_at(uidx[i]), wanted[i]
                        pos[i] = at = row.searchsorted(v)
                        present[i] = at < row.shape[0] and row[at] == v
                out[s:e] = present
                if method == "scan":
                    steps = np.where(present, pos + 1, counts_q)
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

    executor.map_chunks(run_chunk, range(executor.p), label=f"query:edges-{method}")
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

    executor.map_chunks(search_chunk, range(executor.p), label=f"query:single-{method}")
    return bool(found.any())
