"""Synthetic time-evolving edge streams (Section IV workloads).

Models the Wikipedia-style churn the paper motivates: a base graph
exists at frame 0, and every later frame adds some new edges and
deletes (re-toggles) some currently-active ones.  Deletions are
emitted as repeat appearances of an active edge, exercising the exact
parity rule of the paper.
"""

from __future__ import annotations

import numpy as np

from ..temporal.events import EventList, decode_keys, encode_keys, sym_diff_sorted
from ..utils import require
from .er import er_edges
from .rmat import SOCIAL_RMAT, rmat_edges, rmat_scale

__all__ = ["churn_events"]


def churn_events(
    n: int,
    base_edges: int,
    num_frames: int,
    *,
    add_per_frame: int = 0,
    delete_per_frame: int = 0,
    rng: np.random.Generator | None = None,
    social: bool = True,
) -> EventList:
    """Generate a toggle stream over *num_frames* frames.

    Frame 0 activates a base graph (*base_edges* distinct edges);
    every later frame activates *add_per_frame* fresh random edges and
    toggles off *delete_per_frame* edges sampled from the currently
    active set (skipped when nothing is active).
    """
    require(n >= 2, "need at least two nodes")
    require(num_frames >= 1, "need at least one frame")
    require(base_edges >= 0 and add_per_frame >= 0 and delete_per_frame >= 0,
            "edge counts must be non-negative")
    rng = rng or np.random.default_rng()

    def draw(count: int) -> np.ndarray:
        if count == 0:
            return np.zeros(0, dtype=np.uint64)
        if social:
            su, sv, nn = rmat_edges(rmat_scale(n), count, params=SOCIAL_RMAT, rng=rng)
            su, sv = su % n, sv % n
        else:
            su, sv, _ = er_edges(n, count, rng=rng)
        return np.unique(encode_keys(su, sv))

    us, vs, ts = [], [], []
    active = np.zeros(0, dtype=np.uint64)

    def emit(keys: np.ndarray, frame: int) -> None:
        if keys.size == 0:
            return
        eu, ev = decode_keys(np.sort(keys))
        us.append(eu)
        vs.append(ev)
        ts.append(np.full(eu.shape[0], frame, dtype=np.int64))

    base = draw(base_edges)
    emit(base, 0)
    active = base
    for frame in range(1, num_frames):
        adds = draw(add_per_frame)
        adds = adds[~np.isin(adds, active)]
        if delete_per_frame and active.size:
            take = min(delete_per_frame, active.shape[0])
            dels = rng.choice(active, size=take, replace=False)
        else:
            dels = np.zeros(0, dtype=np.uint64)
        toggles = np.union1d(adds, dels)
        emit(toggles, frame)
        active = sym_diff_sorted(active, toggles)
    if not us:
        return EventList(
            np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64), n
        )
    return EventList(
        np.concatenate(us), np.concatenate(vs), np.concatenate(ts), n
    )
