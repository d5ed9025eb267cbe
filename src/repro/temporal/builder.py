"""Algorithm 5 — parallel construction of the differential TCSR.

The paper's recipe, phase by phase (Figure 5):

A. *Chunked frame CSRs*: the time-sorted event list is split
   positionally into ``p`` chunks; each processor parity-reduces the
   events of every frame present in its chunk.
B. *Overlap merge*: a frame straddling a chunk boundary has partial
   toggle sets in two (or more) chunks; XOR-merging the partials is
   exactly the degree-style overlap merge of Section III-A2.
C-E. *Snapshot scan*: cumulative XOR over the frame axis turns toggles
   into absolute snapshots using the three-phase prefix-sum pattern of
   Algorithm 1 (local scan, locked carry propagation, broadcast fix-up)
   — the XOR monoid replaces addition.
F. *Differential pass*: adjacent snapshots are XOR'd back into
   differences; frame 0 keeps its snapshot ("the first time-frame in
   every chunk is kept as is").
G. *Bit packing*: every frame's CSR is packed per Algorithm 4.

Phases C-F look redundant (the differences equal the phase-B toggles)
— the paper runs them anyway because its input may deliver per-frame
CSRs rather than raw toggles, and we keep the dance both for fidelity
and because it is what Figure 5 depicts.  ``build_tcsr`` asserts the
algebraic identity in tests via the serial reference.
"""

from __future__ import annotations

import numpy as np

from ..csr.packed import BitPackedCSR
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext
from .events import EventList, parity_filter, sym_diff_sorted
from .frames import csr_from_keys, frame_snapshots, frame_toggles
from .tcsr import TemporalCSR

__all__ = ["build_tcsr", "build_tcsr_serial"]


def build_tcsr_serial(events: EventList, *, gap_encode: bool = False) -> TemporalCSR:
    """Serial reference builder (frame-by-frame, no chunking)."""
    toggles = frame_toggles(events)
    snaps = frame_snapshots(events)
    n = events.num_nodes
    if not toggles:
        base = BitPackedCSR.from_csr(csr_from_keys(np.zeros(0, np.uint64), n))
        return TemporalCSR(n, base, [])
    base = BitPackedCSR.from_csr(
        csr_from_keys(snaps[0], n), gap_encode=gap_encode
    )
    deltas = [
        BitPackedCSR.from_csr(
            csr_from_keys(sym_diff_sorted(snaps[f - 1], snaps[f]), n),
            gap_encode=gap_encode,
        )
        for f in range(1, len(snaps))
    ]
    return TemporalCSR(n, base, deltas)


def build_tcsr(
    events: EventList,
    executor: Executor | None = None,
    *,
    gap_encode: bool = False,
) -> TemporalCSR:
    """Parallel TCSR construction per Algorithm 5 (see module docs)."""
    executor = executor or SerialExecutor()
    n = events.num_nodes
    num_frames = events.num_frames
    if num_frames == 0:
        base = BitPackedCSR.from_csr(csr_from_keys(np.zeros(0, np.uint64), n))
        return TemporalCSR(n, base, [])

    keys = events.keys()
    times = events.t
    p = executor.p
    ev_bounds = chunk_bounds(len(events), p)

    # ------------------------------------------------------------- A
    def chunk_frames(ctx: TaskContext, cid: int):
        s, e = int(ev_bounds[cid]), int(ev_bounds[cid + 1])
        if e <= s:
            return {}
        partial: dict[int, np.ndarray] = {}
        chunk_t = times[s:e]
        chunk_k = keys[s:e]
        frames_here = np.unique(chunk_t)
        for f in frames_here.tolist():
            lo = int(np.searchsorted(chunk_t, f, side="left"))
            hi = int(np.searchsorted(chunk_t, f, side="right"))
            partial[f] = parity_filter(chunk_k[lo:hi])
        ctx.charge(Cost(reads=e - s, writes=e - s, flops=(e - s) * 2))
        return partial

    partials = executor.map_chunks(chunk_frames, range(p), label="tcsr:chunk-csr")

    # ------------------------------------------------------------- B
    def merge_overlaps(ctx: TaskContext):
        toggles: list[np.ndarray] = [np.zeros(0, np.uint64) for _ in range(num_frames)]
        touched = 0
        for partial in partials:
            for f, part in partial.items():
                toggles[f] = sym_diff_sorted(toggles[f], part)
                touched += part.shape[0]
        ctx.charge(Cost(reads=touched, writes=touched))
        return toggles

    toggles = executor.serial(merge_overlaps, label="tcsr:overlap-merge")

    # ------------------------------------------------------------- C-E
    # Prefix "sum" of toggles under XOR, chunked over the frame axis
    # exactly like Algorithm 1.
    snaps: list[np.ndarray] = list(toggles)  # will become snapshots in place
    fr_bounds = chunk_bounds(num_frames, p)

    def local_scan(ctx: TaskContext, cid: int):
        s, e = int(fr_bounds[cid]), int(fr_bounds[cid + 1])
        work = 0
        for f in range(s + 1, e):
            snaps[f] = sym_diff_sorted(snaps[f - 1], snaps[f])
            work += snaps[f].shape[0]
        ctx.charge(Cost(reads=2 * work, writes=work))

    executor.map_chunks(local_scan, range(p), label="tcsr:scan-local")

    def carry(ctx: TaskContext, cid: int):
        s, e = int(fr_bounds[cid]), int(fr_bounds[cid + 1])
        if cid > 0 and e > s:
            prev_end = _last_nonempty_end(fr_bounds, cid)
            if prev_end is not None:
                snaps[e - 1] = sym_diff_sorted(snaps[prev_end - 1], snaps[e - 1])
                ctx.charge(
                    Cost(reads=snaps[e - 1].shape[0], writes=snaps[e - 1].shape[0])
                )

    executor.map_chunks(carry, range(p), label="tcsr:scan-carry", locked=True)

    def broadcast(ctx: TaskContext, cid: int):
        s, e = int(fr_bounds[cid]), int(fr_bounds[cid + 1])
        if cid > 0 and e > s:
            prev_end = _last_nonempty_end(fr_bounds, cid)
            if prev_end is not None:
                work = 0
                for f in range(s, e - 1):
                    snaps[f] = sym_diff_sorted(snaps[prev_end - 1], snaps[f])
                    work += snaps[f].shape[0]
                ctx.charge(Cost(reads=2 * work, writes=work))

    executor.map_chunks(broadcast, range(p), label="tcsr:scan-broadcast")

    # ------------------------------------------------------------- F
    deltas_keys: list[np.ndarray] = [np.zeros(0, np.uint64) for _ in range(num_frames)]

    def differential(ctx: TaskContext, cid: int):
        s, e = int(fr_bounds[cid]), int(fr_bounds[cid + 1])
        work = 0
        for f in range(max(1, s), e):
            deltas_keys[f] = sym_diff_sorted(snaps[f - 1], snaps[f])
            work += deltas_keys[f].shape[0]
        ctx.charge(Cost(reads=2 * work, writes=work))

    executor.map_chunks(differential, range(p), label="tcsr:differential")

    # ------------------------------------------------------------- G
    base = BitPackedCSR.from_csr(
        csr_from_keys(snaps[0], n), executor, gap_encode=gap_encode
    )
    deltas = [
        BitPackedCSR.from_csr(
            csr_from_keys(deltas_keys[f], n), executor, gap_encode=gap_encode
        )
        for f in range(1, num_frames)
    ]
    return TemporalCSR(n, base, deltas)


def _last_nonempty_end(bounds: np.ndarray, cid: int) -> int | None:
    for j in range(cid - 1, -1, -1):
        if bounds[j + 1] > bounds[j]:
            return int(bounds[j + 1])
    return None
