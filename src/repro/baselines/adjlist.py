"""Adjacency-list store: one sorted array per node.

The classic pointer-per-row layout CSR flattens away.  Query costs
match CSR asymptotically, but the per-row object overhead (numpy
header + list slot per node) is what makes it lose the memory
comparison on sparse million-node graphs.
"""

from __future__ import annotations

import sys

import numpy as np

from ..csr.builder import check_edge_list, ensure_sorted
from ..errors import QueryError
from ..utils import human_bytes

__all__ = ["AdjacencyListStore"]

# numpy array object overhead, measured once; used for honest memory
# accounting of the per-row fragmentation this layout suffers.
_ARRAY_OVERHEAD = sys.getsizeof(np.zeros(0, dtype=np.int64))


class AdjacencyListStore:
    """List of per-node sorted neighbour arrays."""

    __slots__ = ("num_nodes", "rows", "_m")

    def __init__(self, sources, destinations, n: int):
        src, dst = ensure_sorted(*check_edge_list(sources, destinations, n))
        starts = np.searchsorted(src, np.arange(n + 1))
        self.num_nodes = int(n)
        self.rows = [
            dst[int(starts[u]) : int(starts[u + 1])].copy() for u in range(n)
        ]
        self._m = int(src.shape[0])

    @property
    def num_edges(self) -> int:
        return self._m

    def _check(self, u: int) -> None:
        if not (0 <= u < self.num_nodes):
            raise QueryError(f"node {u} out of range [0, {self.num_nodes})")

    def degree(self, u: int) -> int:
        """Out-degree of *u*."""
        self._check(u)
        return self.rows[u].shape[0]

    def neighbors(self, u: int) -> np.ndarray:
        """Destinations adjacent to *u*, sorted."""
        self._check(u)
        return self.rows[u]

    def has_edge(self, u: int, v: int) -> bool:
        """True when the edge (u, v) exists."""
        self._check(u)
        self._check(v)
        row = self.rows[u]
        pos = int(np.searchsorted(row, v))
        return pos < row.shape[0] and int(row[pos]) == v

    def memory_bytes(self) -> int:
        """Payload plus per-row allocation overhead and the row table."""
        payload = sum(row.nbytes for row in self.rows)
        overhead = self.num_nodes * _ARRAY_OVERHEAD
        table = sys.getsizeof(self.rows)
        return payload + overhead + table

    def __repr__(self) -> str:
        return (
            f"AdjacencyListStore(n={self.num_nodes}, m={self.num_edges}, "
            f"mem={human_bytes(self.memory_bytes())})"
        )
