"""The store protocol every queryable graph representation satisfies.

Algorithms 6-9 are written against this surface, so one harness can
query the uncompressed CSR, the bit-packed CSR, the sharded store, and
every baseline store interchangeably — the apples-to-apples setup of
Section VI.

Capability resolution (which optional members a store provides) lives
in :mod:`repro.query.capabilities`; the dispatchers below resolve a
:class:`~repro.query.capabilities.StoreCapabilities` once and branch on
its explicit fields.  :class:`BaseStore` is what the serving-path
stores inherit: a store supplies one row-decode primitive, and the key
check, dedup, expansion and the scalar surface are defined here, once.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import BatchShapeError, QueryError
from .capabilities import StoreCapabilities, capabilities

__all__ = [
    "BaseStore",
    "GraphStore",
    "WrapperStore",
    "StoreCapabilities",
    "capabilities",
    "distinct_keys",
    "expand_rows",
    "join_rows",
    "locate_keys",
    "neighbors_batch",
    "row_decode_cost",
    "row_dtype",
]


@runtime_checkable
class GraphStore(Protocol):
    """Minimal query surface of a graph store.

    **Invariant:** every row is non-decreasing — every builder refuses
    (or, with ``sort=True``, sorts) any other edge order — so the kernels
    binary-search any row and never check order.

    For a :class:`BaseStore` subclass: **required** — the row-decode
    primitive ``_decode_rows(keys)``, four attributes (``num_nodes``,
    ``num_edges``, ``row_dtype``, ``memory_bytes()``) and its own
    ``degree``; **derived** — everything else, overridable where a store
    has a cheaper or paper-mandated way.  A store outside the hierarchy
    (the baselines) implements the members below itself.

    Optional members (resolved once per store by
    :func:`~repro.query.capabilities.capabilities`, never probed
    inline):

    ``neighbors_batch(unodes) -> (flat, offsets)``
        Bulk row fetch returning the concatenation of every requested
        row plus ``int64`` offsets delimiting row *i* as
        ``flat[offsets[i]:offsets[i + 1]]``.  Sets
        ``StoreCapabilities.has_native_batch``; without it the
        module-level :func:`neighbors_batch` dispatcher falls back to
        per-row :meth:`neighbors` calls, so baseline stores work
        unchanged.
    ``row_dtype``
        Dtype of decoded neighbour rows.  Defaults to the ``indices``
        dtype for array-backed stores, ``uint64`` for packed stores,
        ``int64`` otherwise.
    ``column_width``
        Bits per packed column field.  Declaring it marks the store as
        packed (``StoreCapabilities.is_packed``) and sets the
        per-element decode charge (``StoreCapabilities.decode_bits``)
        used by :func:`row_decode_cost`.
    """

    num_nodes: int
    num_edges: int

    def degree(self, u: int) -> int:
        """Out-degree of *u*."""
        ...

    def neighbors(self, u: int) -> np.ndarray:
        """Destinations adjacent to *u*, sorted."""
        ...

    def has_edge(self, u: int, v: int) -> bool:
        """True when the edge (u, v) exists."""
        ...

    def memory_bytes(self) -> int:
        """Resident bytes of this structure's payload."""
        ...


class BaseStore:
    """The derived half of the store protocol, defined once.

    A subclass supplies ``_decode_rows(keys) -> (flat, offsets)`` over
    *validated, strictly increasing, in-range* ``int64`` keys (at least
    one); the key check, ``neighbors_batch``, and the scalar surface are
    built on it here.  A wrapper (:class:`WrapperStore`) reaches the
    stores it wraps only through the public ``GraphStore`` calls — the
    primitive is called on ``self`` alone.
    """

    __slots__ = ()

    def _decode_rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.num_nodes):
            raise QueryError(f"node {u} out of range [0, {self.num_nodes})")

    def _key_array(self, unodes) -> np.ndarray:
        us = np.asarray(unodes, dtype=np.int64)
        if us.ndim != 1:
            raise BatchShapeError("node batch must be 1-D")
        return us

    def _check_range(self, lo, hi) -> None:
        if lo < 0 or hi >= self.num_nodes:
            raise QueryError(f"node ids must lie in [0, {self.num_nodes})")

    def _check_keys(self, unodes) -> np.ndarray:
        """*unodes* as a 1-D ``int64`` array of in-range node ids, in
        batch order (for a store that decodes without deduplicating)."""
        us = self._key_array(unodes)
        if us.shape[0]:
            self._check_range(us.min(), us.max())
        return us

    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Bulk row fetch — ``(flat, offsets)`` with row *i* at
        ``flat[offsets[i]:offsets[i + 1]]``: each distinct row is decoded
        once, then expanded back into batch order.  Values and dtype are
        identical to per-row :meth:`neighbors` calls."""
        us = self._key_array(unodes)
        if us.shape[0] == 0:
            return np.zeros(0, dtype=self.row_dtype), np.zeros(1, dtype=np.int64)
        # sortedness is tested first (one pass for the increasing batch a
        # wrapper hands down), and the distinct keys ascend either way:
        # their two end keys bound the batch
        uniq, inverse = distinct_keys(us)
        self._check_range(uniq[0], uniq[-1])
        return expand_rows(*self._decode_rows(uniq), inverse)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted destinations of *u* (one row through the primitive)."""
        self._check_node(u)
        return self._decode_rows(np.asarray([u], dtype=np.int64))[0]

    def has_edge(self, u: int, v: int) -> bool:
        """Decode *u*'s row, then binary search (the §V-B extension)."""
        self._check_node(u)
        self._check_node(v)
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < row.shape[0] and int(row[pos]) == v


class WrapperStore(BaseStore):
    """The part of :class:`BaseStore` only a wrapper needs — kept off
    the leaf stores so a failed attribute probe on one stays a C-level
    miss (``capabilities()`` runs per batch).  A subclass names the
    stores it serves from: ``_inner_stores() -> sequence``."""

    __slots__ = ()

    def _resolve_inner(self, inner) -> StoreCapabilities:
        """A wrapper's constructor step: resolve the (fixed) inner
        store's optional surface once — not per batch — and declare the
        same ``row_dtype`` and, for a packed inner, ``column_width``, so
        the wrapper is charged the decode cost of what it wraps."""
        caps = capabilities(inner)
        self.row_dtype = caps.row_dtype
        self.column_width = caps.decode_bits if caps.is_packed else None
        return caps

    def __getattr__(self, name: str):
        # Conditional page-touch surface: present exactly when every
        # wrapped store meters mapped pages (a wrapper over in-memory stores
        # probes as unmetered), evaluated per lookup (an LSM swaps segments).
        if name == "take_page_touches":
            inners = self._inner_stores()
            for s in inners:  # a plain loop: this runs once per batch, under capabilities()
                if not callable(getattr(s, name, None)):
                    raise AttributeError(name)
            if inners:
                return lambda: sum(int(s.take_page_touches()) for s in inners)
        raise AttributeError(name)


def row_dtype(store, caps: StoreCapabilities | None = None) -> np.dtype:
    """Dtype of *store*'s decoded neighbour rows."""
    caps = caps if caps is not None else capabilities(store)
    return caps.row_dtype


def neighbors_batch(
    store, unodes, caps: StoreCapabilities | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Bulk row fetch with a scalar fallback — ``(flat, offsets)``.

    Dispatches to the store's native ``neighbors_batch`` when its
    capabilities declare one (one packed read per chunk for
    :class:`~repro.csr.BitPackedCSR`, one gather for
    :class:`~repro.csr.CSRGraph`, a scatter-gather fan-out for
    :class:`~repro.shard.ShardedStore`); otherwise loops per-row
    :meth:`GraphStore.neighbors` calls, so every baseline store keeps
    working unchanged.  Values and dtype are identical between the two
    paths.
    """
    caps = caps if caps is not None else capabilities(store)
    if caps.has_native_batch:
        return store.neighbors_batch(unodes)
    us = np.asarray(unodes, dtype=np.int64)
    return join_rows([store.neighbors(int(u)) for u in us], caps.row_dtype)


def join_rows(rows: list[np.ndarray], dtype) -> tuple[np.ndarray, np.ndarray]:
    """Separate row arrays as one ``(flat, offsets)`` payload (*dtype*
    is that of the empty payload when there are no rows)."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.shape[0] for r in rows], out=offsets[1:])
    if not rows:
        return np.zeros(0, dtype=dtype), offsets
    return np.concatenate(rows), offsets


def distinct_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Ascending distinct values of a 1-D ``int64`` key batch plus the
    inverse map — ``(uniq, inverse)`` with ``uniq[inverse] == keys``.

    The one dedup step of every store wrapper's batch path: decode each
    distinct row once, then :func:`expand_rows` back to batch order.
    A batch that is already strictly increasing is its own distinct set
    — one comparison pass instead of a sort — and reports
    ``inverse=None``, which :func:`expand_rows` treats as "nothing to
    expand".
    """
    if keys.shape[0] < 2 or bool(np.all(keys[1:] > keys[:-1])):
        return keys, None
    return np.unique(keys, return_inverse=True)


def expand_rows(
    flat: np.ndarray, offsets: np.ndarray, inverse: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the distinct keys, expanded back into batch order.

    ``(flat, offsets)`` holds one row per distinct key; batch position
    *i* wants row ``inverse[i]``.  One fused indexed copy builds the
    batch-order payload — element *j* of the output row starting at
    ``out_offsets[i]`` reads ``flat[offsets[inverse[i]] + j]``.  A
    ``None`` inverse (see :func:`distinct_keys`) returns the input
    untouched: no pass over the payload at all.
    """
    if inverse is None:
        return flat, offsets
    counts = np.diff(offsets)[inverse]
    out_offsets = np.zeros(inverse.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=out_offsets[1:])
    index = np.repeat(offsets[:-1][inverse] - out_offsets[:-1], counts)
    index += np.arange(int(out_offsets[-1]), dtype=np.int64)
    return flat[index], out_offsets


def locate_keys(
    sorted_keys: np.ndarray, wanted: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where each of *wanted* sits in the non-empty, strictly increasing
    *sorted_keys* — ``(at, found)``; ``at[i]`` is meaningful only where
    ``found[i]``."""
    at = np.minimum(np.searchsorted(sorted_keys, wanted), sorted_keys.shape[0] - 1)
    return at, sorted_keys[at] == wanted


def row_decode_cost(
    store, degree: int, caps: StoreCapabilities | None = None
) -> float:
    """Abstract work units to materialise one row of *store*.

    Packed stores pay per-bit decode; array-backed stores pay one read
    per neighbour.  Used by the query engine's cost charges.
    """
    caps = caps if caps is not None else capabilities(store)
    return float(degree * caps.decode_bits)
