"""Opt-in LRU cache of decoded neighbour rows.

Social-network query traffic is heavily skewed — a few celebrity nodes
absorb most lookups — so re-decoding the same packed row per query
wastes exactly the bit-ops the packed CSR was meant to amortise.
:class:`RowCache` wraps any :class:`~repro.query.stores.GraphStore`
with a capacity measured in *decoded elements* (not rows), keeps
hit/miss counters, and satisfies the same store surface, so it drops
into :class:`~repro.query.engine.QueryEngine` and both batch query
algorithms unchanged.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..utils import require
from .capabilities import capabilities
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

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 when nothing was looked up)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class RowCache:
    """LRU cache of decoded rows over any graph store.

    Parameters
    ----------
    store:
        The wrapped representation; every query surface delegates to it
        on a miss.
    capacity:
        Maximum cached *decoded elements* (neighbour ids) held at once.
        Rows wider than the whole capacity are served but never cached,
        as are empty rows (nothing to amortise).  Cached rows are owned
        copies, so a resident row never pins the batch decode buffer it
        was sliced from.
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
        "_rows",
        "_elements",
    )

    def __init__(self, store, capacity: int):
        require(capacity >= 0, "cache capacity must be non-negative")
        self.store = store
        # the wrapped store is fixed for the cache's life, so its
        # optional surface is resolved here, once — not per batch
        self._store_caps = capabilities(store)
        #: dtype of decoded rows (the wrapped store's)
        self.row_dtype = self._store_caps.row_dtype
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._elements = 0

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
        """Row of *u*, decoded at most once while it stays resident."""
        row = self._rows.get(u)
        if row is not None:
            self.hits += 1
            self._rows.move_to_end(u)
            return row
        self.misses += 1
        row = self.store.neighbors(u)
        self._insert(u, row)
        return row

    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Bulk row fetch: cached rows are reused, the misses are
        decoded through the wrapped store's own batch path (once per
        distinct node) and inserted.  Returns ``(flat, offsets)``."""
        us = np.asarray(unodes, dtype=np.int64)
        if us.ndim != 1:
            raise ValidationError("node batch must be 1-D")
        rows: list[np.ndarray | None] = [None] * us.shape[0]
        missing: dict[int, list[int]] = {}
        for i, u in enumerate(us.tolist()):
            row = self._rows.get(u)
            if row is not None:
                self.hits += 1
                self._rows.move_to_end(u)
                rows[i] = row
            else:
                self.misses += 1
                missing.setdefault(u, []).append(i)
        if missing:
            uniq = np.fromiter(missing, dtype=np.int64, count=len(missing))
            flat, offs = _store_batch(self.store, uniq, self._store_caps)
            for k, u in enumerate(uniq.tolist()):
                row = flat[offs[k] : offs[k + 1]]
                self._insert(u, row)
                for i in missing[u]:
                    rows[i] = row
        offsets = np.zeros(us.shape[0] + 1, dtype=np.int64)
        np.cumsum([r.shape[0] for r in rows], out=offsets[1:])
        if not rows:
            return np.zeros(0, dtype=self.row_dtype), offsets
        return np.concatenate(rows), offsets

    def has_edge(self, u: int, v: int) -> bool:
        """Binary search of *v* in *u*'s (possibly cached) row."""
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.shape[0] and int(row[pos]) == v

    def memory_bytes(self) -> int:
        """Wrapped payload plus resident cached rows."""
        return int(self.store.memory_bytes()) + sum(
            row.nbytes for row in self._rows.values()
        )

    def __getattr__(self, name: str):
        # Conditional page-touch surface: a cache over an out-of-core
        # store stays meterable (hits fault no pages, misses delegate),
        # while a cache over an in-memory store keeps not advertising
        # the capability.
        if name == "take_page_touches":
            try:
                store = object.__getattribute__(self, "store")
            except AttributeError:
                raise AttributeError(name) from None
            inner = getattr(store, "take_page_touches", None)
            if callable(inner):
                return inner
        raise AttributeError(name)

    # -- cache mechanics ------------------------------------------------
    def _insert(self, u: int, row: np.ndarray) -> None:
        size = row.shape[0]
        if size == 0 or size > self.capacity:
            # empty rows cost nothing to re-decode and would sit outside
            # the element budget forever; oversized rows never fit
            return
        old = self._rows.pop(u, None)
        if old is not None:
            self._elements -= old.shape[0]
        if row.base is not None:
            # a slice of a batch decode buffer (or of the CSR's whole
            # indices array) would pin its backing allocation alive and
            # break the element/byte accounting — cache an owned copy
            row = row.copy()
        self._rows[u] = row
        self._elements += size
        while self._elements > self.capacity:
            _, evicted = self._rows.popitem(last=False)
            self._elements -= evicted.shape[0]
            self.evictions += 1

    def invalidate(self, nodes) -> int:
        """Evict the cached rows of *nodes* (ids without a resident row
        are ignored); returns how many rows were dropped.

        The staleness hatch for mutable stores: after the wrapped
        store's row *u* changes, ``invalidate([u])`` guarantees the
        next lookup re-decodes instead of serving the pre-write copy.
        Dropped rows count in ``stats().invalidations``, not
        ``evictions`` (those remain capacity-pressure only).
        """
        dropped = 0
        for u in np.asarray(nodes, dtype=np.int64).ravel().tolist():
            row = self._rows.pop(u, None)
            if row is not None:
                self._elements -= row.shape[0]
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
        )

    def clear(self) -> None:
        """Drop every cached row and zero the counters."""
        self._rows.clear()
        self._elements = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"RowCache({self.store!r}, capacity={self.capacity}, "
            f"rows={s.rows}, elements={s.elements}, hits={s.hits}, "
            f"misses={s.misses}, hit_rate={s.hit_rate:.1%})"
        )
