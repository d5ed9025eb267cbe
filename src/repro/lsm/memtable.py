"""The in-RAM delta memtable: recent edge writes over immutable bases.

A classic LSM memtable holds the most recent value per key; here the
key is a directed edge ``(u, v)`` and the value is one bit — alive
(inserted) or dead (a *tombstone* masking a copy of the edge in some
base segment).  The table is a two-level dict keyed by source node so
that the read path can ask one question cheaply: "what does the delta
say about row ``u``?"  :meth:`row_delta` answers with two sorted int64
arrays (additions, deletions); the store asks once per row and epoch —
it keeps the merged row and splices its own writes into it.
"""

from __future__ import annotations

import numpy as np

from ..utils import require

__all__ = ["DeltaMemtable"]

#: Rough per-entry cost of the two-level dict in CPython (key boxes,
#: hash slots) — for honest memory_bytes().
_ENTRY_BYTES = 96


class DeltaMemtable:
    """Mutable overlay of edge inserts and tombstones, keyed by source.

    The memtable records *latest state wins* semantics: inserting then
    deleting the same edge leaves one tombstone entry, not two events.
    ``len(table)`` counts resident entries (inserts + tombstones) —
    the quantity compaction watermarks trigger on.
    """

    __slots__ = ("_rows", "_entries", "_tombstones", "_dirty_cache")

    def __init__(self):
        self._rows: dict[int, dict[int, bool]] = {}
        self._entries = 0
        self._tombstones = 0
        self._dirty_cache: np.ndarray | None = None

    def __len__(self) -> int:
        """Resident entries (inserts plus tombstones)."""
        return self._entries

    @property
    def tombstones(self) -> int:
        """Resident delete markers."""
        return self._tombstones

    # -- writes ---------------------------------------------------------
    def _set(self, u: int, v: int, alive: bool) -> None:
        row = self._rows.setdefault(u, {})
        prev = row.get(v)
        if prev is None:
            self._entries += 1
            self._dirty_cache = None
        if prev is False and alive:
            self._tombstones -= 1
        elif not alive and prev is not False:
            self._tombstones += 1
        row[v] = alive

    def insert(self, u: int, v: int) -> None:
        """Record edge ``(u, v)`` as alive (overwrites a tombstone)."""
        self._set(int(u), int(v), True)

    def delete(self, u: int, v: int) -> None:
        """Record a tombstone for ``(u, v)`` (overwrites an insert)."""
        self._set(int(u), int(v), False)

    def remove(self, u: int, v: int) -> None:
        """Drop the entry for ``(u, v)`` entirely (no marker remains).

        Used when a delete lands on a memtable-only insert: the edge
        never reached a base segment, so no tombstone is needed.
        """
        u, v = int(u), int(v)
        row = self._rows.get(u)
        if row is None:
            return
        prev = row.pop(v, None)
        if prev is None:
            return
        self._entries -= 1
        if prev is False:
            self._tombstones -= 1
        if not row:
            del self._rows[u]
            self._dirty_cache = None

    # -- reads ----------------------------------------------------------
    def state(self, u: int, v: int) -> bool | None:
        """Delta verdict on ``(u, v)``: True (inserted), False
        (tombstoned), or None (the delta is silent — ask the bases)."""
        row = self._rows.get(int(u))
        if row is None:
            return None
        return row.get(int(v))

    def is_dirty(self, u: int) -> bool:
        """True when row *u* has any resident delta entry."""
        return int(u) in self._rows

    def dirty_nodes(self) -> np.ndarray:
        """Sorted sources with resident deltas (int64).  Memoised until
        a row gains its first or loses its last entry:
        :meth:`LsmStore.neighbors_batch` binary-searches each batch
        against it to find the batch's dirty keys."""
        if not self._rows:
            return np.zeros(0, dtype=np.int64)
        if self._dirty_cache is None:
            self._dirty_cache = np.sort(
                np.fromiter(self._rows, dtype=np.int64,
                            count=len(self._rows))
            )
        return self._dirty_cache

    def row_delta(self, u: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Sorted ``(adds, dels)`` int64 arrays for row *u*, or None
        when the row is clean."""
        row = self._rows.get(int(u))
        if row is None:
            return None
        adds = np.sort(np.array(
            [v for v, alive in row.items() if alive], dtype=np.int64))
        dels = np.sort(np.array(
            [v for v, alive in row.items() if not alive], dtype=np.int64))
        return adds, dels

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every resident entry as ``(u, v, alive)`` arrays, sorted by
        ``(u, v)`` — the flush/save serialisation order."""
        n = self._entries
        us = np.empty(n, dtype=np.int64)
        vs = np.empty(n, dtype=np.int64)
        alive = np.empty(n, dtype=bool)
        i = 0
        for u in sorted(self._rows):
            row = self._rows[u]
            for v in sorted(row):
                us[i], vs[i], alive[i] = u, v, row[v]
                i += 1
        return us, vs, alive

    # -- lifecycle ------------------------------------------------------
    def clear(self) -> None:
        """Drop every entry (after a compaction folded them in)."""
        self._rows.clear()
        self._dirty_cache = None
        self._entries = 0
        self._tombstones = 0

    def memory_bytes(self) -> int:
        """Estimated resident bytes of the delta structure."""
        return self._entries * _ENTRY_BYTES

    @classmethod
    def from_entries(cls, us, vs, alive) -> "DeltaMemtable":
        """Rebuild from :meth:`entries` arrays (the load path)."""
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        alive = np.asarray(alive, dtype=bool)
        require(us.shape == vs.shape == alive.shape,
                "memtable entry arrays must align")
        table = cls()
        for u, v, a in zip(us.tolist(), vs.tolist(), alive.tolist()):
            table._set(u, v, bool(a))
        return table

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaMemtable(entries={self._entries}, "
            f"tombstones={self._tombstones}, rows={len(self._rows)})"
        )
