"""The uncompressed CSR graph type.

:class:`CSRGraph` is the paper's Figure 1 structure: an offset array
``iA`` (``indptr``, length ``n + 1``) and a column array ``jA``
(``indices``, length ``m``), plus an optional value array ``vA`` for
weighted graphs ("if the graph is unweighted, we ignore the third
array").  Every row is sorted — the builders and the validating
constructor refuse anything else — so edge existence is a binary search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NotSortedError, QueryError, ValidationError
from ..parallel.sort import edges_sorted
from ..query.stores import BaseStore
from ..utils import human_bytes, min_uint_dtype, require

__all__ = ["CSRGraph", "MemoryBreakdown"]


@dataclass(frozen=True)
class MemoryBreakdown:
    """Byte counts per CSR component."""

    indptr: int
    indices: int
    values: int = 0

    @property
    def total(self) -> int:
        return self.indptr + self.indices + self.values

    def __str__(self) -> str:
        parts = [
            f"indptr={human_bytes(self.indptr)}",
            f"indices={human_bytes(self.indices)}",
        ]
        if self.values:
            parts.append(f"values={human_bytes(self.values)}")
        return f"{human_bytes(self.total)} ({', '.join(parts)})"


class CSRGraph(BaseStore):
    """Directed graph in Compressed Sparse Row form.

    Parameters
    ----------
    indptr:
        Row offsets, length ``n + 1``, non-decreasing, ``indptr[0] == 0``
        and ``indptr[n] == m``.
    indices:
        Column (destination) ids, length ``m``; each row's slice must be
        non-decreasing (the store invariant :meth:`has_edge` bisects
        under), or validation raises :class:`~repro.errors.NotSortedError`.
    values:
        Optional edge weights (``vA``), length ``m``.
    validate:
        Set ``False`` to skip structural checks when the caller has just
        constructed provably valid arrays (the builders do this).
    """

    __slots__ = ("indptr", "indices", "values")

    def __init__(self, indptr, indices, values=None, *, validate: bool = True):
        iptr = np.asarray(indptr)
        idx = np.asarray(indices)
        vals = None if values is None else np.asarray(values)
        if validate:
            self._validate(iptr, idx, vals)
        self.indptr = iptr
        self.indices = idx
        self.values = vals

    @staticmethod
    def _validate(iptr: np.ndarray, idx: np.ndarray, vals) -> None:
        if iptr.ndim != 1 or iptr.size < 1:
            raise ValidationError("indptr must be 1-D with length >= 1")
        if not np.issubdtype(iptr.dtype, np.integer):
            raise ValidationError("indptr must be integers")
        if idx.ndim != 1:
            raise ValidationError("indices must be 1-D")
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValidationError("indices must be integers")
        if int(iptr[0]) != 0:
            raise ValidationError("indptr[0] must be 0")
        if iptr.size > 1 and np.any(iptr[1:] < iptr[:-1]):
            raise ValidationError("indptr must be non-decreasing")
        if int(iptr[-1]) != idx.shape[0]:
            raise ValidationError(
                f"indptr[-1]={int(iptr[-1])} must equal len(indices)={idx.shape[0]}"
            )
        n = iptr.size - 1
        if idx.size:
            if np.issubdtype(idx.dtype, np.signedinteger) and int(idx.min()) < 0:
                raise ValidationError("indices must be non-negative")
            if int(idx.max()) >= n:
                raise ValidationError(
                    f"column id {int(idx.max())} out of range for n={n}"
                )
        if vals is not None and vals.shape[0] != idx.shape[0]:
            raise ValidationError("values must align with indices")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(iptr))
        if not edges_sorted(rows, idx):
            raise NotSortedError("CSR rows must be sorted: indices decrease within a row")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0]

    @property
    def is_weighted(self) -> bool:
        return self.values is not None

    def degree(self, u: int) -> int:
        """Out-degree of *u*."""
        self._check_node(u)
        return int(self.indptr[u + 1] - self.indptr[u])

    def degrees(self) -> np.ndarray:
        """Degree of every node as an ``int64`` array."""
        return np.diff(self.indptr).astype(np.int64)

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted destination ids of *u* (a zero-copy view)."""
        self._check_node(u)
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbors_batch(self, unodes) -> tuple[np.ndarray, np.ndarray]:
        """Rows of many nodes via one fancy-indexing gather.

        Returns ``(flat, offsets)``: the concatenation of every
        requested row (same dtype as :attr:`indices`) plus ``int64``
        offsets delimiting row *i* as ``flat[offsets[i]:offsets[i+1]]``.
        A gather costs the same whatever the key order, so the batch is
        not deduplicated first.
        """
        return self._decode_rows(self._check_keys(unodes))

    def _decode_rows(self, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        starts = self.indptr[us].astype(np.int64)
        counts = self.indptr[us + 1].astype(np.int64) - starts
        offsets = np.zeros(us.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return self.indices[:0], offsets
        gather = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets[:-1], counts
        )
        return self.indices[gather], offsets

    @property
    def row_dtype(self) -> np.dtype:
        """Dtype of neighbour rows (the :attr:`indices` dtype)."""
        return self.indices.dtype

    def neighbor_weights(self, u: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors`."""
        if self.values is None:
            raise QueryError("graph is unweighted")
        self._check_node(u)
        return self.values[self.indptr[u] : self.indptr[u + 1]]

    # ------------------------------------------------------------------
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """The (sources, destinations) edge list, u-sorted."""
        sources = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self.degrees())
        return sources, self.indices.astype(np.int64, copy=False)

    def memory(self) -> MemoryBreakdown:
        """Per-component byte breakdown."""
        return MemoryBreakdown(
            indptr=self.indptr.nbytes,
            indices=self.indices.nbytes,
            values=0 if self.values is None else self.values.nbytes,
        )

    def memory_bytes(self) -> int:
        """Resident bytes of this structure's payload."""
        return self.memory().total

    def compact_dtypes(self) -> "CSRGraph":
        """Shrink arrays to the smallest dtypes that hold their ranges."""
        iptr = self.indptr.astype(min_uint_dtype(self.num_edges))
        idx = self.indices.astype(min_uint_dtype(max(0, self.num_nodes - 1)))
        return CSRGraph(iptr, idx, self.values, validate=False)

    # ------------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        same = np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )
        if not same:
            return False
        if (self.values is None) != (other.values is None):
            return False
        if self.values is not None:
            return bool(np.array_equal(self.values, other.values))
        return True

    __hash__ = None  # type: ignore[assignment]  # value equality, mutable arrays

    def __repr__(self) -> str:
        return (
            f"CSRGraph(n={self.num_nodes}, m={self.num_edges}, "
            f"weighted={self.is_weighted}, mem={human_bytes(self.memory_bytes())})"
        )

    # ------------------------------------------------------------------
    # Bridges.
    @classmethod
    def from_dense(cls, matrix) -> "CSRGraph":
        """Build from a dense 0/1 (or weight) matrix — Table I style."""
        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError("dense matrix must be square")
        n = mat.shape[0]
        rows, cols = np.nonzero(mat)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(indptr, cols.astype(np.int64), validate=False)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense matrix (small graphs only)."""
        n = self.num_nodes
        require(n <= 4096, "to_dense is a debugging aid for small graphs")
        out = np.zeros((n, n), dtype=np.int64)
        src, dst = self.edges()
        if self.values is not None:
            out[src, dst] = self.values
        else:
            out[src, dst] = 1
        return out

    def to_scipy(self):
        """As a ``scipy.sparse.csr_matrix`` (requires scipy)."""
        from scipy.sparse import csr_matrix

        data = self.values if self.values is not None else np.ones(self.num_edges)
        n = self.num_nodes
        return csr_matrix((data, self.indices, self.indptr), shape=(n, n))

    @classmethod
    def from_networkx(cls, graph) -> "CSRGraph":
        """Build from a networkx (di)graph with integer node labels."""
        n = graph.number_of_nodes()
        labels = sorted(graph.nodes())
        if labels != list(range(n)):
            raise ValidationError("networkx nodes must be labelled 0..n-1")
        directed = graph.is_directed()
        us, vs = [], []
        for u, v in graph.edges():
            us.append(u)
            vs.append(v)
            if not directed:
                us.append(v)
                vs.append(u)
        from .builder import build_csr  # deferred: builder imports this module

        src = np.asarray(us, dtype=np.int64)
        dst = np.asarray(vs, dtype=np.int64)
        return build_csr(src, dst, n, sort=True)

    def to_networkx(self):
        """Convert to a ``networkx.DiGraph``."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.num_nodes))
        src, dst = self.edges()
        g.add_edges_from(zip(src.tolist(), dst.tolist()))
        return g
