"""EdgeLog — per-neighbour activity intervals with gap encoding [21], [22].

Each vertex stores its distinct neighbours (sorted) and, per neighbour,
the list of frames at which the edge toggled; consecutive toggle pairs
form activity intervals.  Queries bisect the neighbour list and then
scan that neighbour's (short) toggle list — faster than EveLog's full
log replay, at the cost of per-neighbour indexing space.
"""

from __future__ import annotations

import numpy as np

from ..bitpack.varint import varint_decode, varint_encode
from ..errors import FrameError
from ..utils import human_bytes
from .events import EventList, check_node

__all__ = ["EdgeLog"]


class EdgeLog:
    """Interval-list temporal adjacency with gap-encoded toggle times."""

    __slots__ = ("num_nodes", "num_frames", "_nbrs", "_toggle_offsets", "_toggles")

    def __init__(self, events: EventList):
        self.num_nodes = events.num_nodes
        self.num_frames = events.num_frames
        # order events by (u, v, t): each (u, v)'s toggle times contiguous
        order = np.lexsort((events.t, events.v, events.u))
        us = events.u[order]
        vs = events.v[order]
        ts = events.t[order]
        self._nbrs: list[np.ndarray | None] = [None] * self.num_nodes
        self._toggle_offsets: list[np.ndarray | None] = [None] * self.num_nodes
        self._toggles: list[np.ndarray | None] = [None] * self.num_nodes
        starts = np.searchsorted(us, np.arange(self.num_nodes + 1))
        for u in range(self.num_nodes):
            lo, hi = int(starts[u]), int(starts[u + 1])
            if hi <= lo:
                continue
            v_local = vs[lo:hi]
            t_local = ts[lo:hi]
            distinct, first_pos = np.unique(v_local, return_index=True)
            # positions arrive sorted by v already (lexsort), so runs
            # are contiguous; compute run boundaries
            boundaries = np.concatenate((np.sort(first_pos), [hi - lo]))
            self._nbrs[u] = distinct.astype(np.int64)
            offsets = np.zeros(distinct.shape[0] + 1, dtype=np.int64)
            streams = []
            for j in range(distinct.shape[0]):
                t_run = t_local[boundaries[j] : boundaries[j + 1]]
                gaps = np.empty(t_run.shape[0], dtype=np.int64)
                gaps[0] = t_run[0]
                np.subtract(t_run[1:], t_run[:-1], out=gaps[1:])
                enc = varint_encode(gaps)
                streams.append(enc)
                offsets[j + 1] = offsets[j] + enc.shape[0]
            self._toggle_offsets[u] = offsets
            self._toggles[u] = (
                np.concatenate(streams) if streams else np.zeros(0, np.uint8)
            )

    # ------------------------------------------------------------------
    def _check(self, u: int, frame: int) -> None:
        check_node(u, self.num_nodes)
        if not (0 <= frame < max(1, self.num_frames)):
            raise FrameError(f"frame {frame} out of range [0, {self.num_frames})")

    def _toggle_times(self, u: int, slot: int) -> np.ndarray:
        offsets = self._toggle_offsets[u]
        stream = self._toggles[u][offsets[slot] : offsets[slot + 1]]
        return np.cumsum(varint_decode(stream).astype(np.int64))

    def edge_active(self, u: int, v: int, frame: int) -> bool:
        """Bisect the neighbour list, then count toggles up to *frame*."""
        self._check(u, frame)
        check_node(v, self.num_nodes)
        nbrs = self._nbrs[u]
        if nbrs is None:
            return False
        slot = int(np.searchsorted(nbrs, v))
        if slot >= nbrs.shape[0] or int(nbrs[slot]) != v:
            return False
        times = self._toggle_times(u, slot)
        return int(np.searchsorted(times, frame, side="right")) % 2 == 1

    def neighbors_at(self, u: int, frame: int) -> np.ndarray:
        """Active neighbours of *u* at *frame*."""
        self._check(u, frame)
        nbrs = self._nbrs[u]
        if nbrs is None:
            return np.zeros(0, dtype=np.int64)
        active = [
            int(nbrs[j])
            for j in range(nbrs.shape[0])
            if int(np.searchsorted(self._toggle_times(u, j), frame, side="right")) % 2
        ]
        return np.asarray(active, dtype=np.int64)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Resident bytes of this structure's payload."""
        total = 0
        for arr_list in (self._nbrs, self._toggle_offsets, self._toggles):
            for arr in arr_list:
                if arr is not None:
                    total += arr.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"EdgeLog(n={self.num_nodes}, frames={self.num_frames}, "
            f"mem={human_bytes(self.memory_bytes())})"
        )
