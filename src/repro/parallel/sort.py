"""Edge ordering (its one home) and the chunked sample sort under it.

The paper assumes its edge lists arrive sorted; when they don't, the
sort is the one stage its algorithms leave sequential.  Every
(source, destination) ordering in the stack goes through three entry
points here — :func:`ensure_sorted`, :func:`sort_edges`,
:func:`sort_within_rows` — all on one **fused integer key**
``(hi << bits) | lo``, which a plain value sort orders the way
``np.lexsort((lo, hi))`` would.  The key is used when
``bit_length(max hi) + bit_length(max lo) <= 63`` and all ids are
non-negative integers; wider ids fall back to the one ``np.lexsort``
in :func:`sort_edges` — a representability rule, not an option.
The order *check* lives here too: :func:`edges_sorted` is the one
predicate every builder refuses an unsorted edge list with, so every
store's rows are non-decreasing by construction.

On an executor the sort is the classic three-phase BSP sample sort —
parallel local sorts, serial O(p²) splitter selection from regular
samples, parallel exchange + merge of each splitter bucket — charged
like every other kernel, so ``build_csr(..., sort=True)`` shows the sort
stage in the simulated scaling instead of as an Amdahl wall.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..errors import ValidationError
from ..utils import is_sorted
from .chunking import chunk_bounds
from .cost import Cost
from .machine import Executor, SerialExecutor, TaskContext

__all__ = [
    "parallel_sort",
    "edges_sorted",
    "ensure_sorted",
    "sort_edges",
    "sort_within_rows",
]


def parallel_sort(values: np.ndarray, executor: Executor | None = None) -> np.ndarray:
    """Sorted copy of *values* via chunked sample sort.

    Output equals ``np.sort(values)`` for every input and executor
    width (property-tested); no permutation is built.
    """
    return _sample_sort(values, executor, want_order=False)


def _compares(k: int) -> int:
    """Declared comparison count of sorting *k* keys: k·⌊log2 k⌋."""
    return k * max(1, int(np.log2(max(2, k))))


def _sample_sort(values, executor: Executor | None, *, want_order: bool) -> np.ndarray:
    """The three phases over values or (*want_order*) indices: both
    modes declare the same costs and differ only in the numpy work."""
    executor = executor or SerialExecutor()
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError("parallel sort input must be 1-D")
    n, p = arr.shape[0], executor.p
    if n == 0:
        return np.zeros(0, dtype=np.int64 if want_order else arr.dtype)
    bounds = chunk_bounds(n, p)

    # Phase 1 — local sorts (an argsort keeps global indices, ties by index).
    def local_sort(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e <= s:
            return None
        chunk = arr[s:e]
        if want_order:
            idx = np.argsort(chunk, kind="stable")
            local = (chunk[idx], idx + s)
        else:
            local = (np.sort(chunk), None)
        ctx.charge(Cost(reads=e - s, writes=e - s, flops=_compares(e - s)))
        return local

    locals_ = executor.parallel(
        [partial(local_sort, cid=cid) for cid in range(p)], label="sort:local"
    )
    locals_ = [loc for loc in locals_ if loc is not None]

    # Phase 2 — splitters from regular samples (serial, tiny).
    def pick_splitters(ctx: TaskContext):
        samples = []
        for keys, _ in locals_:
            take = min(len(keys), p)
            idx = (np.arange(take, dtype=np.int64) * len(keys)) // take
            samples.append(keys[idx])
        pool = np.sort(np.concatenate(samples), kind="stable")
        ctx.charge(Cost(reads=pool.shape[0], flops=pool.shape[0]))
        cuts = (np.arange(1, p, dtype=np.int64) * pool.shape[0]) // p
        return pool[cuts]

    splitters = executor.serial(pick_splitters, label="sort:splitters")

    # Phase 3 — each processor gathers the keys that fall in its bucket
    # (binary searches into the sorted chunks, no rescan) and merges
    # them.  Pieces arrive in chunk order, each key-sorted with ties by
    # index, so a stable sort on the keys alone keeps ties in index order.
    def merge_bucket(ctx: TaskContext, cid: int):
        lo = splitters[cid - 1] if cid > 0 else None
        hi = splitters[cid] if cid < len(splitters) else None
        key_pieces, idx_pieces = [], []
        for keys, idx in locals_:
            start = 0 if lo is None else int(np.searchsorted(keys, lo, side="left"))
            stop = len(keys) if hi is None else int(np.searchsorted(keys, hi, side="left"))
            if stop > start:
                key_pieces.append(keys[start:stop])
                if want_order:
                    idx_pieces.append(idx[start:stop])
        if not key_pieces:
            return None
        if len(key_pieces) == 1:  # one sorted piece is the sorted bucket
            bucket = idx_pieces[0] if want_order else key_pieces[0]
        elif want_order:
            order = np.argsort(np.concatenate(key_pieces), kind="stable")
            bucket = np.concatenate(idx_pieces)[order]
        else:
            bucket = np.concatenate(key_pieces)
            bucket.sort()
        touched = bucket.shape[0]
        ctx.charge(Cost(reads=2 * touched, writes=touched, flops=_compares(touched)))
        return bucket

    buckets = executor.parallel(
        [partial(merge_bucket, cid=cid) for cid in range(p)], label="sort:merge"
    )

    def concatenate(ctx: TaskContext):
        nonempty = [b for b in buckets if b is not None]
        out = np.concatenate(nonempty) if len(nonempty) > 1 else nonempty[0]
        # charged at index width in both modes
        ctx.charge(Cost(copy_bytes=8 * out.shape[0]))
        return out

    return executor.serial(concatenate, label="sort:concat")


def _fuse(hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, int] | None:
    """``((hi << bits) | lo, bits)`` as a fresh ``int64`` key array, or
    ``None`` when the pair does not fit 63 bits of non-negative integer."""
    if hi.shape != lo.shape or hi.ndim != 1:
        raise ValidationError("ordering keys must be 1-D and equal length")
    for arr in (hi, lo):
        if arr.dtype.kind not in "iu" or (arr.dtype.kind == "i" and arr.min(initial=0) < 0):
            return None
    bits = int(lo.max(initial=0)).bit_length()
    if int(hi.max(initial=0)).bit_length() + bits > 63:
        return None
    key = np.left_shift(hi, bits, dtype=np.int64)
    np.bitwise_or(key, lo, out=key, dtype=np.int64)
    return key, bits


def edges_sorted(sources, destinations) -> bool:
    """Whether an edge list is in (source, destination) order — sources
    non-decreasing, and destinations non-decreasing within each source.

    The one order check of the stack, O(m) and uncharged: every builder
    refuses an edge list it rejects (so every stored row is sorted), and
    :func:`ensure_sorted` skips its sort on one it accepts.
    """
    src, dst = np.asarray(sources), np.asarray(destinations)
    return is_sorted(src) and not np.any((src[1:] == src[:-1]) & (dst[1:] < dst[:-1]))


def ensure_sorted(sources, destinations) -> tuple[np.ndarray, np.ndarray]:
    """Sort an edge list by (source, destination); no-op when sorted.

    The builders' input contract: sorted input comes back as the same
    array objects after the O(m) :func:`edges_sorted` check, anything
    else as fresh arrays of the same dtypes: ``src[o], dst[o]`` for
    ``o = np.lexsort((dst, src))``.
    """
    src, dst = np.asarray(sources), np.asarray(destinations)
    if edges_sorted(src, dst):
        return src, dst
    return sort_edges(src, dst)[:2]


def sort_edges(sources, destinations, weights=None, executor: Executor | None = None):
    """``(src, dst, weights)`` sorted by (source, destination), stably.

    Equal to gathering all three through ``np.lexsort((dst, src))``:
    duplicate edges keep input order, so *weights* stay with their
    edges.  Without weights no permutation is built — the fused keys
    are sorted by value and split back into the two columns.  The
    sample sort and the ``build:sort-apply`` gather are charged to
    *executor*.
    """
    executor = executor or SerialExecutor()
    src, dst = np.asarray(sources), np.asarray(destinations)
    vals = None if weights is None else np.asarray(weights)
    fused = _fuse(src, dst)
    key = order = None
    if fused is None:  # ids too wide for one 63-bit key
        order = np.lexsort((dst, src))
    elif vals is None:
        key = _sample_sort(fused[0], executor, want_order=False)
        bits, mask = fused[1], (1 << fused[1]) - 1
    else:
        order = _sample_sort(fused[0], executor, want_order=True)

    out_src = np.empty_like(src)
    # value-sorted keys of dst's dtype become the dst column in place
    out_dst = key if key is not None and key.dtype == dst.dtype else np.empty_like(dst)
    out_vals = np.empty_like(vals) if vals is not None else None
    bounds = chunk_bounds(src.shape[0], executor.p)

    def apply_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e <= s:
            return
        if key is not None:
            np.right_shift(key[s:e], bits, out=out_src[s:e], casting="unsafe")
            np.bitwise_and(key[s:e], mask, out=out_dst[s:e], casting="unsafe")
        else:
            piece = order[s:e]
            out_src[s:e] = src[piece]
            out_dst[s:e] = dst[piece]
            if out_vals is not None:
                out_vals[s:e] = vals[piece]
        ctx.charge(Cost(reads=3 * (e - s), writes=2 * (e - s)))

    executor.parallel(
        [partial(apply_chunk, cid=cid) for cid in range(executor.p)],
        label="build:sort-apply",
    )
    return out_src, out_dst, out_vals


def sort_within_rows(offsets: np.ndarray, vals: np.ndarray, positions=None) -> np.ndarray:
    """Sort each CSR row of the flat payload *vals* independently.

    Row ``r`` is ``vals[offsets[r] - offsets[0] : offsets[r + 1] - offsets[0]]``;
    the result equals ``vals[np.lexsort((vals, row_ids))]`` in values
    and dtype, from one in-place sort of the fused ``(row, value)`` keys.
    With *positions* (a permutation of the row indices) row ``r`` also
    moves to place ``positions[r]`` — ``row_ids`` is then
    ``positions`` repeated by row length — in the same single sort.
    """
    vals = np.asarray(vals)
    lengths = np.diff(offsets)
    if positions is None:
        positions = np.arange(lengths.shape[0], dtype=np.int64)
    row_ids = np.repeat(np.asarray(positions, dtype=np.int64), lengths)
    fused = _fuse(row_ids, vals)
    if fused is None:
        return sort_edges(row_ids, vals)[1]
    key, bits = fused
    key.sort()
    key &= (1 << bits) - 1
    return key.astype(vals.dtype, copy=False)
