"""The store protocol every queryable graph representation satisfies.

Algorithms 6-9 are written against this surface, so one harness can
query the uncompressed CSR, the bit-packed CSR, the sharded store, and
every baseline store interchangeably — the apples-to-apples setup of
Section VI.

Capability resolution (which optional members a store provides) lives
in :mod:`repro.query.capabilities`; this module contains **no**
``getattr`` probing — every dispatcher below resolves a
:class:`~repro.query.capabilities.StoreCapabilities` once and branches
on its explicit fields.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from .capabilities import StoreCapabilities, capabilities

__all__ = [
    "GraphStore",
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
