"""Element-budget LRU cache of decoded neighbour rows, with second-touch
admission once it is full.

Social-network query traffic is heavily skewed — a few celebrity nodes
absorb most lookups — so re-decoding the same packed row per query
wastes exactly the bit-ops the packed CSR was meant to amortise.
:class:`RowCache` wraps any :class:`~repro.query.stores.GraphStore`
with a capacity measured in *decoded elements* (not rows), keeps
hit/miss counters, and satisfies the same store surface, so it drops
into :class:`~repro.query.engine.QueryEngine` and both batch query
algorithms unchanged.  Under uniform traffic over a working set far
larger than the budget, admitting every miss would copy, insert and
evict almost every row it decodes; a full cache therefore admits a row
only when it was asked for before.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..utils import min_uint_dtype, require
from .capabilities import capabilities
from .stores import WrapperStore, join_rows
from .stores import neighbors_batch as _store_batch

__all__ = ["RowCache", "RowCacheStats"]


@dataclass(frozen=True, slots=True)
class RowCacheStats:
    """Snapshot of a :class:`RowCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    rows: int
    elements: int
    capacity: int
    invalidations: int = 0
    #: misses served without admission (a first touch on a full cache,
    #: or a row wider than the whole budget)
    refused: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 when nothing was looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RowCache(WrapperStore):
    """Element-budget LRU cache of decoded rows over any graph store,
    with second-touch admission when full.

    Parameters
    ----------
    store:
        The wrapped representation; every query surface delegates to it
        on a miss.
    capacity:
        Maximum cached *decoded elements* (neighbour ids) held at once.
        Rows wider than the whole capacity are served but never cached.
        Empty rows are resident as one shared array charged **one**
        element each (so the budget still bounds the dict): re-decoding
        one is free, but every batch touching one — a third of a social
        graph's nodes — missed and descended the wrapped stack.  Cached
        rows are owned **read-only** copies: none pins the decode buffer
        it was sliced from, lookups hand out the resident array itself,
        and a write into a reply raises instead of corrupting the cache.

    Width: rows are held at :attr:`row_dtype`, the narrowest unsigned
    dtype holding ``num_nodes - 1`` (``uint8`` up to 256 nodes, then
    ``uint16``, ``uint32``, ``uint64``), not at the wrapped store's
    dtype, so a resident element costs the id width, as in the packed
    column.  Every reply — a hit, a refused view, the empty row, the
    :meth:`neighbors_batch` payload — has that one dtype; widen one
    before arithmetic on it (``row + 1`` wraps at 255 over ``uint8``).

    Admission: a missed row that fits without evicting anything is
    admitted, as is one asked for before in the current *window*.  Any
    other miss is refused — served as a read-only view of the decode
    buffer, and remembered as asked once.  The window is one capacity's
    worth of refused charges: once they exceed ``capacity``, every
    "asked once" mark is forgotten.  The marks are one byte per node,
    counted in :meth:`memory_bytes`.
    """

    __slots__ = (
        "store",
        "row_dtype",
        "_store_caps",
        "capacity",
        "hits",
        "misses",
        "evictions",
        "invalidations",
        "refused",
        "_rows",
        "_elements",
        "_charged",
        "_empty",
        "_asked",
        "_window",
    )

    def __init__(self, store, capacity: int):
        require(capacity >= 0, "cache capacity must be non-negative")
        self.store = store
        # the wrapped store is fixed for the cache's life, so its
        # optional surface is resolved here, once — not per batch
        self._store_caps = capabilities(store)
        #: dtype of every row it holds or hands out: the narrowest
        #: unsigned width of a node id, whatever the wrapped store decodes to
        self.row_dtype = min_uint_dtype(max(int(store.num_nodes) - 1, 0))
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.refused = 0
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._elements = 0
        self._charged = 0  # _elements plus one per resident empty row
        self._empty = np.zeros(0, dtype=self.row_dtype)
        self._empty.setflags(write=False)
        # one byte per node: asked for once in the current window
        self._asked = np.zeros(int(store.num_nodes), dtype=bool)
        self._window = 0  # refused charges since the last window reset

    # -- store surface --------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Node count of the wrapped store."""
        return self.store.num_nodes

    @property
    def num_edges(self) -> int:
        """Edge count of the wrapped store."""
        return self.store.num_edges

    def degree(self, u: int) -> int:
        """Out-degree of *u* (cached row length when available)."""
        row = self._rows.get(u)
        if row is not None:
            return row.shape[0]
        return self.store.degree(u)

    def neighbors(self, u: int) -> np.ndarray:
        """Row of *u*: a one-key :meth:`neighbor_rows`, under the same
        admission rule."""
        return self.neighbor_rows((u,))[0]

    def neighbor_rows(self, unodes) -> list[np.ndarray]:
        """Bulk row fetch, zero-copy: one array per key — a hit's is the
        resident row itself; misses are decoded through the wrapped
        store's own batch path (once per distinct node) and admitted or
        served as read-only views of the decode buffer."""
        keys = self._key_array(unodes).tolist()
        rows: list[np.ndarray | None] = [None] * len(keys)
        missing: dict[int, list[int]] = {}
        get, touch = self._rows.get, self._rows.move_to_end
        for i, u in enumerate(keys):
            row = get(u)
            if row is not None:
                rows[i] = row
                touch(u)
            else:
                missing.setdefault(u, []).append(i)
        missed = 0
        if missing:
            # the wrapped store gets the distinct misses in increasing
            # order (its own dedup is then one comparison pass); they are
            # admitted in the order the batch first asked for them
            ids = sorted(missing)
            # before a miss indexes the marks: a negative id must not wrap
            self._check_range(ids[0], ids[-1])
            flat, offs = _store_batch(self.store, np.array(ids, dtype=np.int64),
                                      self._store_caps)
            # at the cache's width once, so admitted rows copy out narrow;
            # a refused row is a view of this buffer: read-only, like a hit
            flat = flat.astype(self.row_dtype, copy=False).view()
            flat.setflags(write=False)
            bounds = offs.tolist()
            slot = dict(zip(ids, range(len(ids))))  # a miss's row in the decode buffer
            asked, capacity = self._asked, self.capacity
            for u, where in missing.items():
                k = slot[u]
                row = flat[bounds[k] : bounds[k + 1]]
                charge = row.shape[0] or 1  # an empty row costs one
                if charge <= capacity and (self._charged + charge <= capacity
                                           or asked[u]):
                    row = self._insert(u, row)
                else:
                    self.refused += len(where)
                    if charge <= capacity:
                        # full, and a first touch: remember it for one window
                        asked[u] = True
                        self._window += charge
                        if self._window > capacity:
                            asked.fill(False)
                            self._window = 0
                for i in where:
                    rows[i] = row
                missed += len(where)
        self.hits += len(keys) - missed
        self.misses += missed
        return rows

    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`neighbor_rows` joined into one ``(flat, offsets)`` payload."""
        return join_rows(self.neighbor_rows(unodes), self.row_dtype)

    def memory_bytes(self) -> int:
        """Wrapped payload, resident cached rows and the admission marks."""
        return (int(self.store.memory_bytes()) + self._elements * self.row_dtype.itemsize
                + self._asked.nbytes)

    def _inner_stores(self):
        # hits fault no pages and misses delegate: meterable as the store is
        return (self.store,)

    # -- cache mechanics ------------------------------------------------
    def _insert(self, u: int, row: np.ndarray):
        """Make *row* resident, evicting from the LRU end until the
        budget holds; returns the array now standing for *u*."""
        size = row.shape[0]
        if u in self._rows:
            self._forget(self._rows.pop(u))
        if size == 0:
            row = self._empty
        elif row.base is not None:
            # a slice of a batch decode buffer (or of the CSR's whole
            # indices array) would pin its backing allocation alive
            # and break the element/byte accounting — own a copy
            row = row.copy()
        row.setflags(write=False)
        self._rows[u] = row
        self._elements += size
        self._charged += size or 1
        while self._charged > self.capacity:
            old, gone = self._rows.popitem(last=False)
            self._forget(gone)
            self._asked[old] = False  # an evicted row starts over
            self.evictions += 1
        return row

    def _forget(self, row: np.ndarray) -> None:
        """Bookkeeping for a row that just left residency."""
        self._elements -= row.shape[0]
        self._charged -= row.shape[0] or 1

    def invalidate(self, nodes) -> int:
        """Evict the cached rows of *nodes* (ids without a resident row
        are ignored); returns how many rows were dropped.

        The staleness hatch for mutable stores: after the wrapped
        store's row *u* changes, ``invalidate([u])`` guarantees the
        next lookup re-decodes instead of serving the pre-write copy.
        A dropped row counts as asked once, so a written hot row is
        re-admitted on its next read.  Dropped rows count in
        ``stats().invalidations``, not ``evictions`` (those remain
        capacity-pressure only).
        """
        dropped = 0
        for u in np.asarray(nodes, dtype=np.int64).ravel().tolist():
            row = self._rows.pop(u, None)
            if row is not None:
                self._forget(row)
                self._asked[u] = True
                dropped += 1
        self.invalidations += dropped
        return dropped

    def stats(self) -> RowCacheStats:
        """Current counters as an immutable snapshot."""
        return RowCacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            rows=len(self._rows),
            elements=self._elements,
            capacity=self.capacity,
            invalidations=self.invalidations,
            refused=self.refused,
        )

    def clear(self) -> None:
        """Drop every cached row, forget every touch and zero the counters."""
        self._rows.clear()
        self._asked.fill(False)
        self._elements = self._charged = self._window = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.refused = 0

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"RowCache({self.store!r}, capacity={self.capacity}, "
            f"rows={s.rows}, elements={s.elements}, hits={s.hits}, "
            f"misses={s.misses}, hit_rate={s.hit_rate:.1%})"
        )
