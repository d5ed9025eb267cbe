"""Explicit store-capability resolution.

Historically every query kernel sniffed a store's optional surface
inline (``getattr(store, "neighbors_batch", ...)``, ``"column_width"``,
``"indices"``), so the capability contract lived in scattered call
sites.  :func:`capabilities` is now the **only** place that inspects a
store: it resolves the optional members documented on
:class:`~repro.query.stores.GraphStore` once and returns an immutable
:class:`StoreCapabilities` that every kernel consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["StoreCapabilities", "capabilities"]


@dataclass(frozen=True, slots=True)
class StoreCapabilities:
    """Resolved optional surface of one :class:`GraphStore`.

    Attributes
    ----------
    has_native_batch:
        The store implements ``neighbors_batch(unodes)`` itself; the
        dispatcher calls it instead of looping per-row ``neighbors``.
    row_dtype:
        Dtype of decoded neighbour rows.
    is_packed:
        Rows live in a fixed-width bit stream (the store declares
        ``column_width``), so decoding pays per-bit work.
    decode_bits:
        Abstract work units per decoded row element: the packed column
        width for packed stores, 1 for array-backed stores.  This is
        the per-element factor behind
        :func:`~repro.query.stores.row_decode_cost`.
    counts_page_touches:
        The store meters distinct memory-mapped pages faulted by its
        decode paths and drains the counter through
        ``take_page_touches()`` (the out-of-core :mod:`repro.disk`
        store, and composites wrapping one).  Query kernels charge the
        drained count to the ``page_touches`` cost channel after each
        bulk fetch.
    supports_writes:
        The store accepts in-place edge mutations through
        ``insert_edge(u, v)`` / ``delete_edge(u, v)`` (the
        log-structured :class:`~repro.lsm.LsmStore`).  The serving
        layer routes :class:`~repro.serve.request.WriteRequest`
        traffic only to stores declaring this.
    resident_rows:
        The store keeps decoded rows resident and hands a batch over
        zero-copy, as those arrays — ``neighbor_rows(unodes) -> rows``
        (:class:`~repro.query.rowcache.RowCache`).
    """

    has_native_batch: bool
    row_dtype: np.dtype
    is_packed: bool
    decode_bits: int
    counts_page_touches: bool = False
    supports_writes: bool = False
    resident_rows: bool = False


def capabilities(store) -> StoreCapabilities:
    """Resolve *store*'s optional query surface, once.

    The sole capability-probing site of the query layer.  Resolution
    order for ``row_dtype`` mirrors what stores actually declare: an
    explicit ``row_dtype`` attribute wins, packed stores (recognised by
    ``column_width``) decode to ``uint64``, array-backed stores expose
    their ``indices`` dtype, and anything else defaults to ``int64``.
    """
    native = callable(getattr(store, "neighbors_batch", None))
    width = getattr(store, "column_width", None)
    declared = getattr(store, "row_dtype", None)
    pages = callable(getattr(store, "take_page_touches", None))
    writes = callable(getattr(store, "insert_edge", None)) and callable(
        getattr(store, "delete_edge", None)
    )
    resident = callable(getattr(store, "neighbor_rows", None))
    if declared is not None:
        dtype = np.dtype(declared)
    elif width is not None:
        dtype = np.dtype(np.uint64)
    else:
        indices = getattr(store, "indices", None)
        dtype = indices.dtype if indices is not None else np.dtype(np.int64)
    return StoreCapabilities(
        has_native_batch=native,
        row_dtype=dtype,
        is_packed=width is not None,
        decode_bits=int(width) if width is not None else 1,
        counts_page_touches=pages,
        supports_writes=writes,
        resident_rows=resident,
    )
