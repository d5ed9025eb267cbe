"""The reordered store view: compressed ids inside, original ids outside.

:class:`ReorderedStore` wraps any inner :class:`GraphStore` that was
built from a *relabeled* edge list and carries the permutation used, so
every query translates on the way in (``perm[u]``) and back out
(``inv[new_id]``) — results are bit-exact in the original id space, and
callers never see the compression ordering.  This is the WebGraph
``.map``-file convention: :meth:`bits_per_edge` reports the inner
encoding alone (the permutation is a side table, not part of the edge
stream), while :meth:`memory_bytes` counts the permutation honestly.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError, ValidationError
from ..parallel.sort import sort_within_rows
from ..query.capabilities import capabilities
from ..query.stores import distinct_keys, expand_rows
from ..query.stores import neighbors_batch as _store_batch
from ..utils import human_bytes
from .orderings import compute_ordering

__all__ = ["ReorderedStore", "build_reordered_store"]


class ReorderedStore:
    """An id-translating wrapper satisfying the ``GraphStore`` protocol.

    Parameters
    ----------
    inner:
        A store built over the *relabeled* graph (node ``u`` of the
        original graph appears inside as ``perm[u]``).
    perm:
        The permutation applied before the inner build,
        ``perm[old_id] = new_id``.
    ordering:
        Display name of the ordering that produced *perm*.
    """

    __slots__ = (
        "inner", "perm", "inv", "ordering", "num_nodes",
        "row_dtype", "column_width", "_inner_caps",
    )

    def __init__(self, inner, perm, *, ordering: str = "custom"):
        p = np.asarray(perm, dtype=np.int64)
        n = int(inner.num_nodes)
        if p.shape != (n,):
            raise ValidationError(f"permutation must have shape ({n},)")
        seen = np.zeros(n, dtype=bool)
        seen[p] = True
        if not seen.all():
            raise ValidationError("perm must be a permutation of range(n)")
        self.inner = inner
        self.perm = p
        self.inv = np.empty(n, dtype=np.int64)
        self.inv[p] = np.arange(n, dtype=np.int64)
        self.ordering = str(ordering)
        self.num_nodes = n
        # the inner store is fixed for the wrapper's life, so its
        # optional surface is resolved here, once — not per batch
        caps = capabilities(inner)
        self._inner_caps = caps
        #: dtype of decoded rows (the inner store's)
        self.row_dtype = caps.row_dtype
        #: inner packed column width, ``None`` for unpacked inners —
        #: declared so capability resolution charges the same
        #: per-element decode cost as the wrapped store
        self.column_width = caps.decode_bits if caps.is_packed else None

    # -- protocol surface -----------------------------------------------
    @property
    def num_edges(self) -> int:
        """Edge count (unchanged by relabeling)."""
        return int(self.inner.num_edges)

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.num_nodes):
            raise QueryError(f"node {u} out of range [0, {self.num_nodes})")

    def degree(self, u: int) -> int:
        """Out-degree of original node *u*."""
        self._check_node(u)
        return int(self.inner.degree(int(self.perm[u])))

    def degrees(self) -> np.ndarray:
        """Degree of every node, indexed by original id."""
        return np.asarray(self.inner.degrees(), dtype=np.int64)[self.perm]

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted original-id destinations of original node *u*."""
        self._check_node(u)
        row = self.inner.neighbors(int(self.perm[u]))
        mapped = self.inv[np.asarray(row, dtype=np.int64)]
        mapped.sort()
        return mapped.astype(self.row_dtype, copy=False)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test in original ids — translated, then delegated."""
        self._check_node(u)
        self._check_node(v)
        return bool(self.inner.has_edge(int(self.perm[u]), int(self.perm[v])))

    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Bulk row fetch in original ids — ``(flat, offsets)``.

        Deduplicates the batch first — skewed serving workloads repeat
        the same hub rows thousands of times, and decoding (plus
        re-sorting) each distinct row once turns the translation cost
        from O(output) into O(distinct rows) + one expansion gather.
        Each distinct row runs through the inner store's vectorised
        batch kernel, maps back through the inverse permutation, and is
        re-sorted (relabeled rows are sorted by *new* id) by one
        :func:`~repro.parallel.sort.sort_within_rows` over the batch.
        """
        us = np.asarray(unodes, dtype=np.int64)
        if us.ndim != 1:
            raise QueryError("node batch must be 1-D")
        if us.size == 0:
            return np.zeros(0, dtype=self.row_dtype), np.zeros(1, dtype=np.int64)
        if int(us.min()) < 0 or int(us.max()) >= self.num_nodes:
            raise QueryError(f"node ids must lie in [0, {self.num_nodes})")
        uniq, inverse = distinct_keys(us)
        flat_u, offs_u = _store_batch(self.inner, self.perm[uniq], self._inner_caps)
        mapped = self.inv[np.asarray(flat_u, dtype=np.int64)]
        sorted_u = sort_within_rows(offs_u, mapped).astype(self.row_dtype, copy=False)
        return expand_rows(sorted_u, offs_u, inverse)

    def __getattr__(self, name: str):
        # Conditional forwards: the page-touch surface (and the packed
        # metadata some tools introspect) exist exactly when the inner
        # store provides them, keeping capability probes accurate.
        if name in ("take_page_touches", "gap_encoded", "offset_width"):
            inner = object.__getattribute__(self, "inner")
            missing = object()
            value = getattr(inner, name, missing)
            if value is not missing:
                return value
        raise AttributeError(name)

    # -- accounting ------------------------------------------------------
    def bits_per_edge(self) -> float:
        """Bits per edge of the *inner* encoding.

        The permutation is excluded by convention (WebGraph keeps its
        ``.map`` file outside the graph size too); see
        :meth:`memory_bytes` for the all-in footprint.
        """
        fn = getattr(self.inner, "bits_per_edge", None)
        if callable(fn):
            return float(fn())
        return 8.0 * float(self.inner.memory_bytes()) / max(1, self.num_edges)

    def memory_bytes(self) -> int:
        """Inner payload plus both id-translation tables."""
        return int(self.inner.memory_bytes()) + self.perm.nbytes + self.inv.nbytes

    def to_csr(self):
        """Materialise as a plain CSR graph in *original* ids."""
        from ..csr.reorder import relabel

        return relabel(self.inner.to_csr(), self.inv)

    def __repr__(self) -> str:
        return (
            f"ReorderedStore(ordering={self.ordering!r}, "
            f"inner={type(self.inner).__name__}, n={self.num_nodes}, "
            f"m={self.num_edges}, mem={human_bytes(self.memory_bytes())})"
        )

    # -- persistence -----------------------------------------------------
    def save(self, path) -> None:
        """Persist to ``.npz`` (packed or compact inner stores only).

        Layout: ``store_kind="reordered"``, the ordering name and
        permutation, plus the inner store's own payload under an
        ``inner_`` prefix.
        """
        from ..csr.compact import CompactStore
        from ..csr.packed import BitPackedCSR

        payload: dict = {
            "store_kind": "reordered",
            "ordering": self.ordering,
            "perm": self.perm,
        }
        if isinstance(self.inner, BitPackedCSR):
            payload["inner_kind"] = "packed"
            if self.inner.values is not None:
                raise ValidationError("weighted inner stores cannot be saved")
            payload["inner_num_nodes"] = self.inner.num_nodes
            payload["inner_num_edges"] = self.inner.num_edges
            payload["inner_offset_width"] = self.inner.offset_width
            payload["inner_column_width"] = self.inner.column_width
            payload["inner_gap_encoded"] = int(self.inner.gap_encoded)
            payload["inner_offsets"] = self.inner.offsets.buffer
            payload["inner_offsets_nbits"] = self.inner.offsets.nbits
            payload["inner_columns"] = self.inner.columns.buffer
            payload["inner_columns_nbits"] = self.inner.columns.nbits
        elif isinstance(self.inner, CompactStore):
            payload["inner_kind"] = "compact"
            payload.update(self.inner.npz_payload(prefix="inner_"))
        else:
            raise ValidationError(
                f"only packed or compact inner stores can be saved "
                f"(got {type(self.inner).__name__})"
            )
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path) -> "ReorderedStore":
        """Rebuild a reordered store saved by :meth:`save`."""
        from ..bitpack.bitarray import BitArray
        from ..csr.compact import CompactStore
        from ..csr.packed import BitPackedCSR

        with np.load(path) as data:
            if "store_kind" not in data.files or str(data["store_kind"]) != "reordered":
                raise ValidationError(f"{path} is not a reordered store file")
            inner_kind = str(data["inner_kind"])
            if inner_kind == "packed":
                inner = BitPackedCSR(
                    int(data["inner_num_nodes"]),
                    int(data["inner_num_edges"]),
                    BitArray(data["inner_offsets"], int(data["inner_offsets_nbits"])),
                    int(data["inner_offset_width"]),
                    BitArray(data["inner_columns"], int(data["inner_columns_nbits"])),
                    int(data["inner_column_width"]),
                    gap_encoded=bool(int(data["inner_gap_encoded"])),
                )
            elif inner_kind == "compact":
                inner = CompactStore.from_npz_payload(data, prefix="inner_")
            else:
                raise ValidationError(f"unknown inner store kind '{inner_kind}'")
            perm = np.asarray(data["perm"], dtype=np.int64)
            ordering = str(data["ordering"])
        return cls(inner, perm, ordering=ordering)


def build_reordered_store(
    sources,
    destinations,
    num_nodes: int,
    *,
    order: str = "degree",
    inner: str = "packed",
    executor=None,
    **inner_opts,
):
    """Relabel the edge list under *order* and build an *inner* store.

    The returned :class:`ReorderedStore` answers queries in the
    original id space.  *inner* may be any registered store kind except
    ``reordered`` itself; extra keyword options pass through to the
    inner builder.
    """
    from ..csr.builder import build_csr_serial, ensure_sorted
    from ..stores import inner_store_spec, open_store

    if inner == "reordered":
        raise ValidationError("reordered stores cannot nest directly")
    inner_store_spec(inner, "reordered")
    src, dst = ensure_sorted(sources, destinations)
    graph = build_csr_serial(src, dst, num_nodes)
    perm = compute_ordering(order, graph)
    new_src, new_dst = ensure_sorted(perm[src], perm[dst])
    built = open_store(inner, new_src, new_dst, num_nodes, executor=executor, **inner_opts)
    return ReorderedStore(built, perm, ordering=order)
