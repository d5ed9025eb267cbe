"""The time-evolving differential CSR (TCSR) container.

Per Section IV: frame 0 is stored as a full (bit-packed) CSR; every
later frame stores only the *difference* from its predecessor — the set
of edges toggled — also as a bit-packed CSR.  Activity follows the
parity rule: an edge is active at frame ``t`` iff it appears an odd
number of times in the base plus the deltas ``1..t``.  The graph at
one frame is a store (:meth:`TemporalCSR.at`), so the Section V query
kernels, the row cache and the server reach it like any other.
"""

from __future__ import annotations

import numpy as np

from ..csr.graph import CSRGraph
from ..csr.packed import BitPackedCSR
from ..errors import FrameError
from ..query.stores import WrapperStore
from ..utils import human_bytes, require
from .events import decode_keys, encode_keys, parity_filter

__all__ = ["TemporalCSR", "TemporalFrame"]


class TemporalCSR:
    """Differential time-evolving CSR over ``num_frames`` frames.

    Parameters
    ----------
    base:
        Bit-packed CSR of the snapshot at frame 0.
    deltas:
        One bit-packed toggle CSR per frame ``1..num_frames-1``, in
        order.  ``deltas[i]`` holds the edges whose state flips between
        frame ``i`` and frame ``i + 1``.
    """

    __slots__ = ("num_nodes", "base", "deltas")

    def __init__(self, num_nodes: int, base: BitPackedCSR, deltas: list[BitPackedCSR]):
        require(num_nodes >= 0, "num_nodes must be non-negative")
        require(base.num_nodes == num_nodes, "base node count mismatch")
        for i, d in enumerate(deltas):
            require(d.num_nodes == num_nodes, f"delta {i} node count mismatch")
        self.num_nodes = int(num_nodes)
        self.base = base
        self.deltas = list(deltas)

    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return 1 + len(self.deltas)

    def _check_frame(self, frame: int) -> None:
        if not (0 <= frame < self.num_frames):
            raise FrameError(f"frame {frame} out of range [0, {self.num_frames})")

    def at(self, frame: int) -> "TemporalFrame":
        """The graph at *frame* as a store (see :class:`TemporalFrame`)."""
        self._check_frame(frame)
        return TemporalFrame(self, frame)

    # ------------------------------------------------------------------
    def edge_active(self, u: int, v: int, frame: int) -> bool:
        """Parity of (u, v) over the base and deltas up to *frame*.

        Decodes one row per frame — the linear-in-time cost inherent to
        differential storage (what EveLog/EdgeLog trade space against).
        """
        return self.at(frame).has_edge(u, v)

    def neighbors_at(self, u: int, frame: int) -> np.ndarray:
        """Sorted active neighbours of *u* at *frame*."""
        return self.at(frame).neighbors(u).astype(np.int64)

    def snapshot(self, frame: int) -> CSRGraph:
        """The full graph at *frame* as an uncompressed CSR."""
        return self.at(frame).to_csr()

    def toggles(self, frame: int) -> CSRGraph:
        """The stored difference entering *frame* (frame >= 1)."""
        self._check_frame(frame)
        if frame == 0:
            raise FrameError("frame 0 stores a snapshot, not a difference")
        return self.deltas[frame - 1].to_csr()

    # ------------------------------------------------------------------
    def edge_history(self, u: int, v: int) -> np.ndarray:
        """Boolean activity of (u, v) across every frame.

        One pass over the deltas (cheaper than ``num_frames`` separate
        :meth:`edge_active` calls, which each rescan from frame 0).
        """
        out = np.empty(self.num_frames, dtype=bool)
        state = self.base.has_edge(u, v)  # refuses an out-of-range u or v
        out[0] = state
        for f, delta in enumerate(self.deltas, start=1):
            if delta.has_edge(u, v):
                state = not state
            out[f] = state
        return out

    def edge_lifetime(self, u: int, v: int) -> int:
        """Number of frames (u, v) spent active."""
        return int(self.edge_history(u, v).sum())

    def churn_rate(self) -> float:
        """Mean toggled edges per delta frame (0.0 with no deltas)."""
        counts = self.delta_edge_counts()
        return float(counts.mean()) if counts.size else 0.0

    def memory_bytes(self) -> int:
        """Packed bytes across the base and every delta."""
        return self.base.memory_bytes() + sum(d.memory_bytes() for d in self.deltas)

    def delta_edge_counts(self) -> np.ndarray:
        """Toggled-edge count per stored delta (churn profile)."""
        return np.asarray([d.num_edges for d in self.deltas], dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"TemporalCSR(n={self.num_nodes}, frames={self.num_frames}, "
            f"mem={human_bytes(self.memory_bytes())})"
        )


class TemporalFrame(WrapperStore):
    """The graph at one frame of a :class:`TemporalCSR`, as a store.

    It reads the base and the first *frame* deltas.  A batch takes one
    ``neighbors_batch`` per stored CSR and folds the parity rule once
    over all of them: every ``(row, v)`` key seen an odd number of times
    is active.  The scalar calls fold one row (:meth:`neighbors`) or
    count one edge's occurrences (:meth:`has_edge`) without that batch
    machinery.  A folded row is charged as one decode at the base's
    column width.
    """

    __slots__ = ("num_nodes", "frame", "_csrs", "row_dtype", "column_width")

    def __init__(self, tcsr: TemporalCSR, frame: int):
        self.num_nodes = tcsr.num_nodes
        self.frame = int(frame)
        self._csrs = (tcsr.base, *tcsr.deltas[: self.frame])
        # a folded row decodes like a base row (every stored CSR is a
        # BitPackedCSR, so there is no optional surface to probe)
        self.row_dtype = tcsr.base.row_dtype
        self.column_width = tcsr.base.column_width

    def _inner_stores(self):
        return self._csrs

    def _decode_rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        parts = [csr.neighbors_batch(keys) for csr in self._csrs]
        slots = np.arange(keys.shape[0])
        rows = np.concatenate([np.repeat(slots, np.diff(offs)) for _, offs in parts])
        cols = np.concatenate([flat for flat, _ in parts])
        row, col = decode_keys(parity_filter(encode_keys(rows, cols)))
        offsets = np.zeros(keys.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=keys.shape[0]), out=offsets[1:])
        return col.astype(self.row_dtype), offsets

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted active neighbours of *u*: its rows in every stored
        CSR, parity-filtered once."""
        self._check_node(u)
        return parity_filter(np.concatenate([csr.neighbors(u) for csr in self._csrs]))

    def has_edge(self, u: int, v: int) -> bool:
        """(u, v) is active when an odd number of stored CSRs hold it."""
        self._check_node(u)
        self._check_node(v)
        return sum(csr.has_edge(u, v) for csr in self._csrs) % 2 == 1

    def degree(self, u: int) -> int:
        """Active out-degree of *u*."""
        return self.neighbors(u).shape[0]

    @property
    def num_edges(self) -> int:
        """Active edges at this frame (folds every row)."""
        return self.to_csr().num_edges

    def to_csr(self) -> CSRGraph:
        """The frame as an uncompressed CSR."""
        flat, offsets = self.neighbors_batch(np.arange(self.num_nodes))
        return CSRGraph(offsets, flat.astype(np.int64), validate=False)

    def memory_bytes(self) -> int:
        """Packed bytes of the stored CSRs this frame reads."""
        return sum(csr.memory_bytes() for csr in self._csrs)

    def __repr__(self) -> str:
        return (
            f"TemporalFrame(n={self.num_nodes}, frame={self.frame}, "
            f"csrs={len(self._csrs)}, mem={human_bytes(self.memory_bytes())})"
        )
