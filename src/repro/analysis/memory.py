"""Memory-footprint accounting and paper-scale projection.

Two jobs: (1) byte-exact footprints of every store on the graphs we
actually build, and (2) closed-form projections of what each
representation costs at the *published* node/edge counts, so Table II's
size columns can be compared at the paper's own scale without
processing 117M edges in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils import bits_for_count, bits_for_value, ceil_div, human_bytes, require

__all__ = [
    "StoreFootprint",
    "footprint",
    "measured_bits_per_edge",
    "measured_edge_bits",
    "projected_packed_csr_bytes",
    "projected_packed_csr_bytes_measured",
    "projected_raw_csr_bytes",
    "projected_edgelist_text_bytes",
    "projected_edgelist_binary_bytes",
    "projected_dense_matrix_bytes",
]


@dataclass(frozen=True)
class StoreFootprint:
    """One store's measured footprint."""

    store: str
    nbytes: int
    bits_per_edge: float

    def __str__(self) -> str:
        return f"{self.store}: {human_bytes(self.nbytes)} ({self.bits_per_edge:.2f} b/edge)"


def footprint(name: str, store) -> StoreFootprint:
    """Measured footprint of any :class:`~repro.query.stores.GraphStore`.

    ``num_edges`` is a *required* protocol member, so this reads it
    directly — a non-conforming object fails loudly with
    ``AttributeError`` instead of silently reporting 0 bits/edge.
    """
    nbytes = int(store.memory_bytes())
    m = int(store.num_edges)
    return StoreFootprint(name, nbytes, 8.0 * nbytes / m if m else 0.0)


def measured_bits_per_edge(store) -> float:
    """Total measured bits per edge of a built store.

    Uses the store's own ``bits_per_edge()`` when it has one (packed,
    compact, disk, reordered — each knows its exact encoding), falling
    back to ``8 * memory_bytes / m`` for array-backed baselines.
    """
    fn = getattr(store, "bits_per_edge", None)
    if callable(fn):
        return float(fn())
    m = int(store.num_edges)
    return 8.0 * float(store.memory_bytes()) / m if m else 0.0


def measured_edge_bits(store) -> float:
    """Measured bits per edge of the *edge column* alone.

    This is the number the paper-scale projection needs: the offset
    column's closed form holds at any scale, but the edge column's cost
    depends on how the store actually encoded the gaps (adaptive codecs
    beat the fixed ``bits_for_count(n)`` model by a graph-dependent
    margin only a measurement can capture).  Codec-tracking stores
    report their exact per-codec payload; fixed-width stores report
    their column width; anything else falls back to the all-in
    :func:`measured_bits_per_edge`.
    """
    m = int(store.num_edges)
    breakdown = getattr(store, "codec_breakdown", None)
    if callable(breakdown) and m:
        return sum(row["bits"] for row in breakdown().values()) / m
    inner = getattr(store, "inner", None)
    if inner is not None and hasattr(store, "perm"):
        # reordered wrapper: the permutation is a side table, the edge
        # column lives in the inner store
        return measured_edge_bits(inner)
    width = getattr(store, "column_width", None)
    if width:
        return float(width)
    return measured_bits_per_edge(store)


def projected_packed_csr_bytes(n: int, m: int) -> int:
    """Bit-packed CSR bytes at (n, m) scale, per Algorithm 4's layout.

    ``iA``: (n + 1) fields of ``bits_for_value(m)`` bits; ``jA``: m
    fields of ``bits_for_count(n)`` bits.  This is Algorithm 4's
    paper-scale closed form; it equals :meth:`BitPackedCSR.memory_bytes`
    exactly when rows 0 and n - 1 are non-empty (a store packs ``iA``
    only over its first to last non-empty row).
    """
    require(n >= 0 and m >= 0, "sizes must be non-negative")
    ia_bits = (n + 1) * bits_for_value(m)
    ja_bits = m * bits_for_count(n)
    return ceil_div(ia_bits, 8) + ceil_div(ja_bits, 8)


def projected_packed_csr_bytes_measured(n: int, m: int, edge_bits: float) -> int:
    """Packed-CSR bytes at (n, m) scale using a *measured* edge width.

    Same offset-column closed form as
    :func:`projected_packed_csr_bytes`, but the edge column is charged
    at the mean bits/edge actually measured on a built store (see
    :func:`measured_edge_bits`) instead of the worst-case fixed width —
    so the projection reflects the ordering and codecs in use.
    """
    require(n >= 0 and m >= 0, "sizes must be non-negative")
    require(edge_bits >= 0, "edge_bits must be non-negative")
    ia_bits = (n + 1) * bits_for_value(m)
    ja_bits = int(np.ceil(m * float(edge_bits)))
    return ceil_div(ia_bits, 8) + ceil_div(ja_bits, 8)


def projected_raw_csr_bytes(n: int, m: int, *, index_bytes: int = 4) -> int:
    """Uncompressed CSR bytes with *index_bytes*-wide integers."""
    require(n >= 0 and m >= 0, "sizes must be non-negative")
    offset_bytes = 8 if m > np.iinfo(np.uint32).max else index_bytes
    return (n + 1) * offset_bytes + m * index_bytes


def _expected_digits(n: int) -> float:
    """Expected decimal digit count of a uniform id in [0, n)."""
    if n <= 1:
        return 1.0
    total = 0.0
    d = 1
    lo = 0
    while lo < n:
        hi = min(n, 10**d)
        total += (hi - lo) * d
        lo = hi
        d += 1
    return total / n


def projected_edgelist_text_bytes(n: int, m: int) -> int:
    """Expected text edge-list bytes for m uniform edges over n nodes.

    Per edge: two ids at the expected digit count, a tab, a newline —
    matching :func:`repro.csr.io.edge_list_text_size` in expectation.
    """
    require(n >= 0 and m >= 0, "sizes must be non-negative")
    return int(round(m * (2 * _expected_digits(max(1, n)) + 2)))


def projected_edgelist_binary_bytes(n: int, m: int) -> int:
    """Binary edge-list bytes (two 4- or 8-byte ids per edge)."""
    width = 4 if n <= np.iinfo(np.uint32).max else 8
    return 2 * m * width


def projected_dense_matrix_bytes(n: int, *, bits_per_cell: int = 1) -> int:
    """Dense matrix bytes — the introduction's Friendster arithmetic."""
    require(n >= 0, "n must be non-negative")
    require(bits_per_cell in (1, 8, 32, 64), "unsupported cell width")
    return ceil_div(n * n * bits_per_cell, 8)
