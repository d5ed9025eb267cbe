"""Timestamped edge events and the paper's parity semantics.

Section IV's input is an ordered triplet stream ``(u, v, T)``: an edge's
first appearance activates it, the next appearance deactivates it, and
so on — "if an edge appears an even number of times, the edge is set to
be inactive, and if the count is odd, then the edge is set to be
active".  Events are assumed sorted by time-frame, then by node, per
the paper's input contract.

Edges are frequently manipulated as single ``uint64`` *keys*
(``u << 32 | v``) so set algebra over edge sets is plain sorted-array
work; graphs must therefore have fewer than 2**32 nodes, which covers
every dataset in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FrameError, NotSortedError, ValidationError
from ..utils import require

__all__ = [
    "EventList",
    "encode_keys",
    "decode_keys",
    "parity_filter",
    "sym_diff_sorted",
]

_KEY_SHIFT = np.uint64(32)
_KEY_MASK = np.uint64(0xFFFFFFFF)
_MAX_NODE = 1 << 32


def encode_keys(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pack (u, v) pairs into sortable ``uint64`` edge keys."""
    uu = np.asarray(u, dtype=np.uint64)
    vv = np.asarray(v, dtype=np.uint64)
    if uu.size and (int(uu.max()) >= _MAX_NODE or int(vv.max()) >= _MAX_NODE):
        raise ValidationError("edge keys require node ids < 2**32")
    return (uu << _KEY_SHIFT) | vv


def decode_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`encode_keys` → (u, v) as ``int64``."""
    kk = np.asarray(keys, dtype=np.uint64)
    return (kk >> _KEY_SHIFT).astype(np.int64), (kk & _KEY_MASK).astype(np.int64)


def parity_filter(keys: np.ndarray) -> np.ndarray:
    """Keys occurring an odd number of times (sorted, unique).

    The paper's activity rule applied to a multiset of toggles.
    """
    kk = np.asarray(keys, dtype=np.uint64)
    if kk.size == 0:
        return kk.copy()
    uniq, counts = np.unique(kk, return_counts=True)
    return uniq[counts % 2 == 1]


def sym_diff_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Symmetric difference of two sorted unique key arrays.

    XOR on edge sets — the combine operation of the differential scan
    in Algorithm 5 (toggling a toggled edge untoggles it).
    """
    aa = np.asarray(a, dtype=np.uint64)
    bb = np.asarray(b, dtype=np.uint64)
    if aa.size == 0:
        return bb.copy()
    if bb.size == 0:
        return aa.copy()
    merged = np.sort(np.concatenate((aa, bb)), kind="mergesort")
    keep = np.ones(merged.shape[0], dtype=bool)
    dup = merged[1:] == merged[:-1]
    keep[1:][dup] = False
    keep[:-1][dup] = False
    return merged[keep]


@dataclass(frozen=True)
class EventList:
    """A time-sorted stream of edge toggle events.

    Attributes
    ----------
    u, v:
        Endpoint arrays (``int64``).
    t:
        Time-frame per event (``int64``, non-negative, non-decreasing).
    num_nodes:
        Node universe size; ids must lie in ``range(num_nodes)``.
    """

    u: np.ndarray
    v: np.ndarray
    t: np.ndarray
    num_nodes: int

    def __post_init__(self):
        uu = np.asarray(self.u)
        vv = np.asarray(self.v)
        tt = np.asarray(self.t)
        if not (uu.ndim == vv.ndim == tt.ndim == 1):
            raise ValidationError("event arrays must be 1-D")
        if not (uu.shape[0] == vv.shape[0] == tt.shape[0]):
            raise ValidationError("event arrays must have equal length")
        require(self.num_nodes >= 0, "num_nodes must be non-negative")
        for name, arr in (("u", uu), ("v", vv)):
            if arr.size and not np.issubdtype(arr.dtype, np.integer):
                raise ValidationError(f"{name} must be integers")
            if arr.size and (int(arr.min()) < 0 or int(arr.max()) >= self.num_nodes):
                raise ValidationError(f"{name} ids must lie in [0, {self.num_nodes})")
        if tt.size:
            if not np.issubdtype(tt.dtype, np.integer):
                raise ValidationError("t must be integers")
            if int(tt.min()) < 0:
                raise ValidationError("time-frames must be non-negative")
            if np.any(tt[1:] < tt[:-1]):
                raise NotSortedError("events must be sorted by time-frame")
        object.__setattr__(self, "u", uu.astype(np.int64, copy=False))
        object.__setattr__(self, "v", vv.astype(np.int64, copy=False))
        object.__setattr__(self, "t", tt.astype(np.int64, copy=False))

    # ------------------------------------------------------------------
    @classmethod
    def from_triplets(cls, u, v, t, num_nodes: int) -> "EventList":
        """Sort raw triplets by (t, u, v) — the paper's assumed order."""
        uu = np.asarray(u, dtype=np.int64)
        vv = np.asarray(v, dtype=np.int64)
        tt = np.asarray(t, dtype=np.int64)
        order = np.lexsort((vv, uu, tt))
        return cls(uu[order], vv[order], tt[order], num_nodes)

    def __len__(self) -> int:
        return self.u.shape[0]

    @property
    def num_frames(self) -> int:
        """1 + the largest frame id (0 for an empty stream)."""
        return int(self.t.max()) + 1 if self.t.size else 0

    def keys(self) -> np.ndarray:
        """Events as packed ``u << 32 | v`` edge keys."""
        return encode_keys(self.u, self.v)

    def frame_offsets(self) -> np.ndarray:
        """Offsets of each frame in the event arrays (length frames+1)."""
        frames = self.num_frames
        return np.searchsorted(self.t, np.arange(frames + 1), side="left").astype(
            np.int64
        )

    def frame_slice(self, frame: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) of the events in *frame*."""
        if not (0 <= frame < max(1, self.num_frames)):
            raise FrameError(f"frame {frame} out of range [0, {self.num_frames})")
        lo = int(np.searchsorted(self.t, frame, side="left"))
        hi = int(np.searchsorted(self.t, frame, side="right"))
        return self.u[lo:hi], self.v[lo:hi]

    # ------------------------------------------------------------------
    # Brute-force reference semantics (test oracle).
    def active_keys_at(self, frame: int) -> np.ndarray:
        """Sorted keys of edges active at *frame* (parity over t <= frame)."""
        if frame < 0:
            raise FrameError("frame must be non-negative")
        mask = self.t <= frame
        return parity_filter(encode_keys(self.u[mask], self.v[mask]))

    def active_edges_at(self, frame: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, v) arrays of the edges active at *frame*."""
        return decode_keys(self.active_keys_at(frame))
