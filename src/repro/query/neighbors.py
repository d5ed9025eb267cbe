"""Algorithm 6 — batched neighbourhood queries.

An array of node ids is split into ``p`` chunks; each processor fetches
its whole chunk through the store's bulk row extraction (one packed
gather per chunk for the bit-packed CSR instead of a Python-level
``GetRowFromCSR`` call per query) and deposits the rows into the shared
result vector at each query's position — "the result for every node
queried will be returned as an array of arrays".  Results and cost
charges are identical to the per-row scalar path.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import QueryError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from .stores import (
    GraphStore,
    capabilities,
    neighbors_batch,
    row_decode_cost,
)

__all__ = ["batch_neighbors"]


def batch_neighbors(
    store: GraphStore,
    unodes: Sequence[int] | np.ndarray,
    executor: Executor | None = None,
    *,
    prefetch: Sequence[int] | np.ndarray | None = None,
):
    """Neighbour rows for every node in *unodes*, queried in parallel.

    Returns rows in query order (duplicated queries give duplicated
    rows).  Invalid node ids raise :class:`QueryError` before any
    parallel work starts, so a bad batch cannot partially execute.

    **Prefetch contract.**  *prefetch* names rows a later kernel of the
    same micro-batch will want — the serve loop passes the edge lane's
    distinct sources — as strictly increasing node ids.  They ride on
    chunk 0's store read, *ahead* of its own keys, so the micro-batch
    walks the store stack once instead of once per kernel.  Their rows
    are then the prefix of the fetch, handed back zero-copy for
    :func:`~repro.query.edges.batch_edge_existence` (``rows=``) as
    ``(sources, flat, offsets)`` — or, from a ``resident_rows`` store,
    ``(sources, rows, None)``: its own arrays.  A query that repeats a
    prefetched node is not fetched twice — its reply is the prefix row.
    With ``prefetch`` the return value is ``(rows, fetched)``; without
    it just ``rows``, and the fetch is exactly the per-chunk read of the
    query keys.

    **What is charged where.**  Every chunk is billed its own queries —
    one read and one write per query plus the degree-linear decode of
    its own rows — so the phase's :class:`Cost` does not depend on the
    prefetch: sharing the read is a wall-clock win only.  The one
    exception is the ``page_touches`` channel of out-of-core stores:
    the pages the fused read faulted in are drained once, by chunk 0,
    and charged to this phase; the edge kernel then reads no store and
    charges none.

    Replies are never copied: each is a view of its chunk's fetched
    buffer (and keeps that buffer — prefix included — alive), or the
    store's own read-only resident row, which stays what it was when a
    later write or eviction replaces it in the store.
    """
    executor = executor or SerialExecutor()
    caps = capabilities(store)
    queries = np.asarray(unodes, dtype=np.int64)
    if queries.ndim != 1:
        raise QueryError("query array must be 1-D")
    n = store.num_nodes
    if queries.size and (int(queries.min()) < 0 or int(queries.max()) >= n):
        raise QueryError(f"query ids must lie in [0, {n})")
    # the prefetched rows, deposited by chunk 0 (empty when none named)
    lead, held = None, []
    if prefetch is not None:
        lead = np.asarray(prefetch, dtype=np.int64)
        if lead.ndim != 1 or (
            lead.size
            and (
                int(lead[0]) < 0
                or int(lead[-1]) >= n
                or not bool(np.all(lead[1:] > lead[:-1]))
            )
        ):
            raise QueryError(
                f"prefetch ids must be strictly increasing in [0, {n})"
            )
        held.append(
            (lead, np.zeros(0, dtype=caps.row_dtype), np.zeros(1, dtype=np.int64))
        )

    results: list[np.ndarray] = [None] * queries.shape[0]  # chunks fill it
    bounds = chunk_bounds(queries.shape[0], executor.p)

    def run_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        keys = queries[s:e]
        row_of = None  # row of each query within the fetch (None: in order)
        if cid == 0 and lead is not None and lead.size:
            # one dict pass over the prefetched sources (EXPERIMENTS.md)
            slot = dict(zip(lead.tolist(), range(lead.size)))
            fresh, row_of = [], []
            for u in keys.tolist():
                j = slot.get(u)
                if j is None:
                    j = lead.size + len(fresh)
                    fresh.append(u)
                row_of.append(j)
            keys = np.concatenate((lead, np.array(fresh, dtype=np.int64)))
        decode_units = 0.0
        pages = 0.0
        if keys.size:
            k = lead.size if row_of is not None else 0
            if caps.resident_rows:
                rows = store.neighbor_rows(keys)
                prefix = (lead, rows[:k], None)
            else:
                flat, offs = neighbors_batch(store, keys, caps)
                cuts = offs.tolist()
                rows = [flat[a:b] for a, b in zip(cuts, cuts[1:])]
                prefix = (lead, flat[: cuts[k]], offs[: k + 1])
            if row_of is not None:
                held[0] = prefix
                rows = [rows[j] for j in row_of]
            results[s:e] = rows
            # degree-linear decode charge over the chunk's own rows, so
            # its total equals the per-row sum the scalar path charges
            decode_units = row_decode_cost(store, sum(map(len, rows)), caps)
            if caps.counts_page_touches:
                # out-of-core stores meter the distinct mapped pages the
                # fetch faulted in; billed on the dedicated channel so
                # every other charge matches the in-memory store exactly
                pages = float(store.take_page_touches())
        ctx.charge(
            Cost(reads=e - s, writes=e - s, bit_ops=decode_units, page_touches=pages)
        )

    executor.map_chunks(run_chunk, range(executor.p), label="query:neighbors")
    return results if prefetch is None else (results, held[0])
