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

#: Probes per chunk up to which each probe is one ``searchsorted`` in its
#: own row instead of one over a keyed copy of every fetched row: the
#: measured crossover (EXPERIMENTS.md).
_SMALL_CHUNK = 16


def _membership(row: np.ndarray, v: int, method: Method) -> tuple[bool, int]:
    """(present, elements inspected) in a (sorted) row under the chosen
    search method: "scan" walks the row to the first hit; "bisect"
    charges the binary-search step bound."""
    if method not in _METHODS:
        raise ValidationError(f"unknown search method {method!r}")
    if method == "bisect":
        pos = int(np.searchsorted(row, v))
        steps = max(1, int(np.ceil(np.log2(row.shape[0] + 1))))
        return pos < row.shape[0] and int(row[pos]) == v, steps
    hits = np.flatnonzero(row == v)
    if hits.size:
        return True, int(hits[0]) + 1
    return False, row.shape[0]


def _row_getter(rows, offsets):
    """Row *j* of a fetch: a slice of a decode buffer ``(flat, offsets)``
    or a ``resident_rows`` store's own array (``offsets`` is ``None``)."""
    if offsets is None:
        return rows.__getitem__
    return lambda j: rows[offsets[j] : offsets[j + 1]]


def _searchable(rows, offsets, uidx):
    """What the search of queries *uidx* (row index per query) needs of
    a fetch: each row's length, its length in the keyed payload (0: it
    stays out; the same array when none does), that payload, and a row
    getter.  A decode buffer ``(flat, offsets)``, every element already
    paid for, is the payload as it stands; of a ``resident_rows``
    store's rows only those cheaper to copy than to search once per
    query are joined."""
    if offsets is not None:
        counts = np.diff(offsets)
        return counts, counts, rows, _row_getter(rows, offsets)
    counts = np.fromiter(map(len, rows), np.int64, len(rows))
    wanted = np.bincount(uidx, minlength=counts.shape[0])
    lens = np.where(counts < _IN_PLACE_MIN * wanted, counts, 0)
    parts = [rows[j] for j in np.flatnonzero(lens).tolist()]
    short = np.concatenate(parts) if parts else lens[:0]
    return counts, lens, short, rows.__getitem__


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
    answers every query inside its source's row — every store's rows
    are sorted by construction — in one of three regimes:

    * **A few probes** (at most ``_SMALL_CHUNK``, the cluster router's
      sub-batches): one ``searchsorted`` per probe in its own row, which
      may be a slice of a :func:`neighbors_batch` decode buffer or a
      ``resident_rows`` store's own array.  No keyed copy is built, so a
      probe into a hub row costs a search, not a pass over the row.
    * **More probes: one keyed payload.**  The decode buffer, or the
      short rows of a ``resident_rows`` store joined (see
      :func:`_searchable`), is resolved by one ``searchsorted`` over all
      the chunk's probes: row *j* shifted by ``j * n`` keeps the payload
      sorted.
    * **Long resident rows, searched in place**: a resident row of at
      least ``_IN_PLACE_MIN`` elements per probe on it is left out of the
      keyed payload and binary-searched where it lies, so a chunk of
      cache hits costs its queries, not the elements of its hub rows.

    Results and cost charges match the per-query scalar path exactly in
    every regime — every query is still billed its own row decode,
    "scan" still counts elements up to the first hit, "bisect" the
    binary-search step bound.

    **Prefetched rows.**  *rows* is what
    :func:`~repro.query.neighbors.batch_neighbors` hands back for its
    ``prefetch`` — ``(sources, flat, offsets)``, or ``(sources, rows,
    None)`` from a ``resident_rows`` store: rows of this store, already
    fetched, for strictly increasing *sources*.  A chunk whose
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
            or (not flat_form and (extra is not None
                                   or len(held) != sources.shape[0]))
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
    # few-probe chunks find their sources among the held rows by dict
    slot = None
    if held is not None and qs.shape[0] // executor.p <= _SMALL_CHUNK:
        slot = dict(zip(sources.tolist(), range(sources.shape[0])))

    def fetch(uniq):
        """The rows of distinct sources *uniq* from the store — ``(flat,
        offsets)`` or ``(rows, None)`` — and the pages that read faulted
        in."""
        if caps.resident_rows:
            fetched = store.neighbor_rows(uniq), None
        else:
            fetched = neighbors_batch(store, uniq, caps)
        pages = float(store.take_page_touches()) if caps.counts_page_touches else 0.0
        return fetched, pages

    def probe_each(s, e):
        """A few-probe chunk: one ``searchsorted`` per probe in its own
        row — no pass over the rows nobody searches."""
        us = qs[s:e, 0].tolist()
        if slot is not None and all(u in slot for u in us):
            (buf, offsets), pages = (held, extra), 0.0
            uidx = [slot[u] for u in us]
        else:
            uniq = sorted(set(us))
            at = dict(zip(uniq, range(len(uniq))))
            uidx = [at[u] for u in us]
            (buf, offsets), pages = fetch(np.array(uniq, dtype=np.int64))
        row_at = _row_getter(buf, offsets)
        decoded = inspected = 0
        # probe values in the row dtype: a mixed-dtype search casts the row
        wanted = qs[s:e, 1].astype(caps.row_dtype)
        for i, j, v in zip(range(s, e), uidx, wanted):
            row = row_at(j)
            size = row.shape[0]
            decoded += size
            at = int(row.searchsorted(v))
            out[i] = found = at < size and row[at] == v
            if method == "scan":
                inspected += at + 1 if found else size
            else:  # bisect: ceil(log2(size + 1)), at least 1
                inspected += max(1, size.bit_length())
        return row_decode_cost(store, decoded, caps), inspected, pages

    def probe_keyed(s, e):
        """A larger chunk: its fetched rows keyed into one sorted
        payload and every probe resolved by one ``searchsorted``."""
        us, vs = qs[s:e, 0], qs[s:e, 1]
        covered = False
        if held is not None:
            uidx, found = locate_keys(sources, us)
            covered = bool(found.all())
        if covered:
            fetched, pages = (held, extra), 0.0
        else:
            uniq, uidx = np.unique(us, return_inverse=True)
            fetched, pages = fetch(uniq)
        counts_u, lens, short, row_at = _searchable(*fetched, uidx)
        counts_q = counts_u[uidx]
        # billed as if each query decoded its own row, like the
        # scalar path — the dedup is a wall-clock win only
        decode_units = row_decode_cost(store, int(counts_q.sum()), caps)
        # disjoint per-row key ranges keep the sorted rows' payload sorted
        keyed = short.astype(np.int64) + np.repeat(
            np.arange(lens.shape[0]) * n, lens
        )
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
        return decode_units, int(steps.sum()), pages

    def run_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        decode_units, inspected, pages = 0.0, 0, 0.0
        if e > s:
            probe = probe_each if e - s <= _SMALL_CHUNK else probe_keyed
            decode_units, inspected, pages = probe(s, e)
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

    The row is extracted once (serial, charged); then each processor
    searches its own slice of it (see :func:`_membership`); any hit wins.
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
