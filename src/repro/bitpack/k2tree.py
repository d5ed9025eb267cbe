"""k²-tree (k = 2) — the compact web/social-graph representation [18].

The adjacency matrix is recursively split into 2×2 quadrants; a node
stores one bit per quadrant saying whether it contains any edge, and
only non-empty quadrants recurse.  Sparse, clustered matrices (web
graphs, social networks) collapse to a few bits per edge, and cell /
row queries navigate the bitmaps directly via rank — the basis of the
``ck^d``-tree temporal structure [5] discussed in related work.

Levels are stored as separate :class:`RankBitVector` s.  The group of
four children of the j-th set bit of level ``ℓ`` starts at position
``4 * rank1(level_ℓ, pos)`` in level ``ℓ+1`` — the textbook layout.
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError, ValidationError
from ..parallel.sort import ensure_sorted
from ..utils import bits_for_count, require
from .rank import RankBitVector

__all__ = ["K2Tree"]


def _interleave_bits(rows: np.ndarray, cols: np.ndarray, levels: int) -> np.ndarray:
    """Morton (z-order) codes: row bit then column bit, MSB first."""
    codes = np.zeros(rows.shape[0], dtype=np.uint64)
    for level in range(levels):
        shift = np.uint64(levels - level - 1)
        rbit = (rows.astype(np.uint64) >> shift) & np.uint64(1)
        cbit = (cols.astype(np.uint64) >> shift) & np.uint64(1)
        codes = (codes << np.uint64(2)) | (rbit << np.uint64(1)) | cbit
    return codes


class K2Tree:
    """Immutable k²-tree (k = 2) over an ``n x n`` boolean matrix."""

    __slots__ = ("num_nodes", "levels", "_bitmaps", "num_edges")

    def __init__(self, sources, destinations, num_nodes: int):
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(destinations, dtype=np.int64)
        require(num_nodes >= 0, "num_nodes must be non-negative")
        if src.shape != dst.shape or src.ndim != 1:
            raise ValidationError("edge arrays must be 1-D and equal length")
        if src.size and (
            int(src.min()) < 0
            or int(dst.min()) < 0
            or int(src.max()) >= num_nodes
            or int(dst.max()) >= num_nodes
        ):
            raise ValidationError(f"edge ids out of range for n={num_nodes}")
        self.num_nodes = int(num_nodes)
        self.levels = max(1, bits_for_count(num_nodes))
        codes = np.unique(_interleave_bits(src, dst, self.levels))
        self.num_edges = int(codes.shape[0])
        bitmaps: list[RankBitVector] = []
        # level ℓ: one 4-bit group per distinct (ℓ)-level prefix parent
        parents = np.zeros(1, dtype=np.uint64)  # virtual root
        for level in range(self.levels):
            shift = np.uint64(2 * (self.levels - level - 1))
            children = np.unique(codes >> shift)
            child_parents = children >> np.uint64(2)
            parent_slot = np.searchsorted(parents, child_parents)
            positions = parent_slot * 4 + (children & np.uint64(3)).astype(np.int64)
            bitmaps.append(
                RankBitVector.from_positions(positions, 4 * parents.shape[0])
            )
            parents = children
        self._bitmaps = bitmaps

    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, graph) -> "K2Tree":
        src, dst = graph.edges()
        return cls(src, dst, graph.num_nodes)

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.num_nodes):
            raise QueryError(f"node {u} out of range [0, {self.num_nodes})")

    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Cell query: walk one root-to-leaf path."""
        self._check_node(u)
        self._check_node(v)
        group = 0  # start of the current 4-bit group
        for level in range(self.levels):
            shift = self.levels - level - 1
            quadrant = (((u >> shift) & 1) << 1) | ((v >> shift) & 1)
            pos = group + quadrant
            bitmap = self._bitmaps[level]
            if not bitmap.get(pos):
                return False
            if level + 1 < self.levels:
                group = 4 * bitmap.rank1(pos)
        return True

    def neighbors(self, u: int) -> np.ndarray:
        """Row query: DFS through the quadrants intersecting row *u*."""
        self._check_node(u)
        out: list[int] = []
        # stack entries: (level, group_start, column_prefix)
        stack = [(0, 0, 0)]
        while stack:
            level, group, col_prefix = stack.pop()
            bitmap = self._bitmaps[level]
            shift = self.levels - level - 1
            rbit = (u >> shift) & 1
            # visit right column child first so output pops ascending
            for cbit in (1, 0):
                pos = group + (rbit << 1) + cbit
                if not bitmap.get(pos):
                    continue
                col = (col_prefix << 1) | cbit
                if level + 1 == self.levels:
                    if col < self.num_nodes:
                        out.append(col)
                else:
                    stack.append((level + 1, 4 * bitmap.rank1(pos), col))
        # DFS with right-first push pops left-first: already ascending,
        # but interleaved subtree order needs one final sort for safety
        result = np.asarray(out, dtype=np.int64)
        result.sort()
        return result

    def degree(self, u: int) -> int:
        """Out-degree of *u*."""
        return int(self.neighbors(u).shape[0])

    # ------------------------------------------------------------------
    def to_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges, sorted by (u, v) — full traversal."""
        us, vs = [], []
        # stack: (level, group, row_prefix, col_prefix)
        stack = [(0, 0, 0, 0)]
        while stack:
            level, group, row_prefix, col_prefix = stack.pop()
            bitmap = self._bitmaps[level]
            for quadrant in range(4):
                pos = group + quadrant
                if not bitmap.get(pos):
                    continue
                row = (row_prefix << 1) | (quadrant >> 1)
                col = (col_prefix << 1) | (quadrant & 1)
                if level + 1 == self.levels:
                    if row < self.num_nodes and col < self.num_nodes:
                        us.append(row)
                        vs.append(col)
                else:
                    stack.append((level + 1, 4 * bitmap.rank1(pos), row, col))
        return ensure_sorted(np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64))

    def memory_bytes(self) -> int:
        """Resident bytes of this structure's payload."""
        return sum(b.memory_bytes() for b in self._bitmaps)

    def bits_per_edge(self) -> float:
        """Compressed bits spent per stored edge."""
        if self.num_edges == 0:
            return 0.0
        return sum(b.nbits for b in self._bitmaps) / self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"K2Tree(n={self.num_nodes}, m={self.num_edges}, "
            f"levels={self.levels}, bits/edge={self.bits_per_edge():.2f})"
        )
