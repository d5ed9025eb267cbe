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

from ..errors import ValidationError
from ..parallel.sort import sort_within_rows
from ..query.stores import WrapperStore
from ..query.stores import neighbors_batch as _store_batch
from ..utils import human_bytes, min_uint_dtype
from .orderings import check_permutation, edge_ordering, relabel

__all__ = ["ReorderedStore", "build_reordered_store"]

#: the inner kinds a saved reordered store can hold
_SAVED_INNER_KINDS = ("packed", "compact")


class ReorderedStore(WrapperStore):
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
        n = int(inner.num_nodes)
        p = check_permutation(perm, n)
        # both tables at the narrowest width an id of range(n) needs
        ids = min_uint_dtype(max(n - 1, 0))
        self.inner = inner
        self.perm = p.astype(ids)
        self.inv = np.empty(n, dtype=ids)
        self.inv[p] = np.arange(n, dtype=ids)
        self.ordering = str(ordering)
        self.num_nodes = n
        self._inner_caps = self._resolve_inner(inner)

    # -- protocol surface -----------------------------------------------
    @property
    def num_edges(self) -> int:
        """Edge count (unchanged by relabeling)."""
        return int(self.inner.num_edges)

    def _inner_stores(self):
        return (self.inner,)

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

    def _decode_rows(self, uniq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of *uniq* in original ids.

        The inner store gets the translated keys in increasing order
        (one argsort), so its batch path neither deduplicates nor
        expands.  Its rows map back through the inverse permutation and
        one :func:`~repro.parallel.sort.sort_within_rows` both puts each
        back at its batch position and re-sorts it (relabeled rows are
        sorted by *new* id) — once per distinct row, however often a
        skewed batch repeats it.
        """
        inner_keys = self.perm[uniq]
        order = np.argsort(inner_keys)
        flat_u, offs_u = _store_batch(self.inner, inner_keys[order], self._inner_caps)
        mapped = self.inv[np.asarray(flat_u, dtype=np.int64)]
        flat = sort_within_rows(offs_u, mapped, order)
        offsets = np.zeros_like(offs_u)
        offsets[1:][order] = offs_u[1:] - offs_u[:-1]
        np.cumsum(offsets, out=offsets)
        return flat.astype(self.row_dtype, copy=False), offsets

    def __getattr__(self, name: str):
        # the packed metadata some tools introspect exists exactly when
        # the inner store provides it
        if name in ("gap_encoded", "offset_width"):
            return getattr(object.__getattribute__(self, "inner"), name)
        return super().__getattr__(name)

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
        """Inner payload plus both id-translation tables (each entry at
        the narrowest unsigned width that holds ``n - 1``)."""
        return int(self.inner.memory_bytes()) + self.perm.nbytes + self.inv.nbytes

    def to_csr(self):
        """Materialise as a plain CSR graph in *original* ids."""
        return relabel(self.inner.to_csr(), self.inv)

    def __repr__(self) -> str:
        return (
            f"ReorderedStore(ordering={self.ordering!r}, "
            f"inner={type(self.inner).__name__}, n={self.num_nodes}, "
            f"m={self.num_edges}, mem={human_bytes(self.memory_bytes())})"
        )

    # -- persistence -----------------------------------------------------
    def npz_payload(self, prefix: str = "") -> dict:
        """Flat ``.npz`` key/value payload (packed or compact inner stores only).

        Layout: the ordering name and permutation (``int64`` in the
        file, whatever the width in memory), the inner store's
        kind (:func:`~repro.stores.npz_kinds`) and its own payload under
        an ``inner_`` prefix.
        """
        from ..stores import npz_kinds

        kind = {cls: k for k, cls in npz_kinds().items()}.get(type(self.inner))
        if kind not in _SAVED_INNER_KINDS:
            raise ValidationError(
                f"only packed or compact inner stores can be saved "
                f"(got {type(self.inner).__name__})"
            )
        if getattr(self.inner, "values", None) is not None:
            raise ValidationError("weighted inner stores cannot be saved")
        return {
            f"{prefix}ordering": self.ordering,
            f"{prefix}perm": self.perm.astype(np.int64),
            f"{prefix}inner_kind": kind,
            **self.inner.npz_payload(prefix=f"{prefix}inner_"),
        }

    @classmethod
    def from_npz_payload(cls, data, prefix: str = "") -> "ReorderedStore":
        """Rebuild from the key/value payload of :meth:`npz_payload`."""
        from ..stores import npz_kinds

        inner_kind = str(data[f"{prefix}inner_kind"])
        if inner_kind not in _SAVED_INNER_KINDS:
            raise ValidationError(f"unknown inner store kind '{inner_kind}'")
        inner = npz_kinds()[inner_kind].from_npz_payload(data, prefix=f"{prefix}inner_")
        return cls(inner, data[f"{prefix}perm"], ordering=str(data[f"{prefix}ordering"]))


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
    from ..csr.builder import ensure_sorted
    from ..stores import inner_store_spec, open_store

    if inner == "reordered":
        raise ValidationError("reordered stores cannot nest directly")
    inner_store_spec(inner, "reordered")
    src, dst = ensure_sorted(sources, destinations)
    perm = edge_ordering(order, src, dst, num_nodes)
    new_src, new_dst = ensure_sorted(perm[src], perm[dst])
    built = open_store(inner, new_src, new_dst, num_nodes, executor=executor, **inner_opts)
    return ReorderedStore(built, perm, ordering=order)
