"""EveLog — the compressed per-vertex event-log baseline [21].

Two compressed lists per vertex: the time-frames of its events
(gap-encoded, then varint-compressed) and the neighbour of each event
(fixed-width packed).  Queries must scan the log sequentially,
re-toggling edge state event by event — the linear-time behaviour the
paper's related-work section criticises and the temporal-baseline bench
measures against TCSR.
"""

from __future__ import annotations

import numpy as np

from ..bitpack.fixed import pack_fixed, unpack_fixed
from ..bitpack.varint import varint_decode, varint_encode
from ..errors import FrameError
from ..utils import bits_for_count, human_bytes
from .events import EventList, check_node, parity_filter

__all__ = ["EveLog"]


class EveLog:
    """Per-vertex compressed event logs with sequential-scan queries."""

    __slots__ = (
        "num_nodes",
        "num_frames",
        "_time_streams",
        "_nbr_bits",
        "_nbr_width",
        "_counts",
    )

    def __init__(self, events: EventList):
        self.num_nodes = events.num_nodes
        self.num_frames = events.num_frames
        # group events by source vertex, preserving time order
        order = np.lexsort((events.t, events.u))  # stable: by u, then t
        us = events.u[order]
        vs = events.v[order]
        ts = events.t[order]
        width = bits_for_count(max(1, self.num_nodes))
        self._nbr_width = width
        self._time_streams: list[np.ndarray | None] = [None] * self.num_nodes
        self._nbr_bits: list = [None] * self.num_nodes
        self._counts = np.zeros(self.num_nodes, dtype=np.int64)
        starts = np.searchsorted(us, np.arange(self.num_nodes + 1))
        for u in range(self.num_nodes):
            lo, hi = int(starts[u]), int(starts[u + 1])
            if hi <= lo:
                continue
            self._counts[u] = hi - lo
            t_local = ts[lo:hi]
            gaps = np.empty(hi - lo, dtype=np.int64)
            gaps[0] = t_local[0]
            np.subtract(t_local[1:], t_local[:-1], out=gaps[1:])
            self._time_streams[u] = varint_encode(gaps)
            self._nbr_bits[u] = pack_fixed(vs[lo:hi], width)

    # ------------------------------------------------------------------
    def _decode_log(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """(times, neighbours) of u's full event log, in time order."""
        check_node(u, self.num_nodes)
        count = int(self._counts[u])
        if count == 0:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        gaps = varint_decode(self._time_streams[u], count).astype(np.int64)
        times = np.cumsum(gaps)
        nbrs = unpack_fixed(self._nbr_bits[u], count, self._nbr_width).astype(np.int64)
        return times, nbrs

    def edge_active(self, u: int, v: int, frame: int) -> bool:
        """Sequential scan of u's log counting toggles of v up to *frame*."""
        if not (0 <= frame < max(1, self.num_frames)):
            raise FrameError(f"frame {frame} out of range [0, {self.num_frames})")
        check_node(v, self.num_nodes)
        times, nbrs = self._decode_log(u)
        active = False
        for t, w in zip(times.tolist(), nbrs.tolist()):
            if t > frame:
                break
            if w == v:
                active = not active
        return active

    def neighbors_at(self, u: int, frame: int) -> np.ndarray:
        """Active neighbours of *u* at *frame* (sequential log replay)."""
        if not (0 <= frame < max(1, self.num_frames)):
            raise FrameError(f"frame {frame} out of range [0, {self.num_frames})")
        times, nbrs = self._decode_log(u)
        mask = times <= frame
        return parity_filter(nbrs[mask].astype(np.uint64)).astype(np.int64)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident bytes of this structure's payload."""
        total = self._counts.nbytes
        for stream in self._time_streams:
            if stream is not None:
                total += stream.nbytes
        for bits in self._nbr_bits:
            if bits is not None:
                total += bits.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"EveLog(n={self.num_nodes}, frames={self.num_frames}, "
            f"mem={human_bytes(self.memory_bytes())})"
        )
