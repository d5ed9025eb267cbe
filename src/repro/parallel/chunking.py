"""Partitioning arrays into per-processor chunks.

The paper's algorithms all follow the same pattern: split an array into
``p`` contiguous chunks, hand one chunk to each processor, then patch up
the chunk boundaries (carry propagation in the scan, first-node merge in
the degree computation).  This module centralises the splitting so every
kernel agrees on chunk geometry.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ValidationError
from ..utils import require

__all__ = [
    "Chunk",
    "even_chunks",
    "chunk_bounds",
    "aligned_chunks",
    "edge_balanced_row_bounds",
]


from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Chunk:
    """A half-open index range ``[start, stop)`` with a chunk id.

    Unpacks like ``start, stop = chunk`` so kernels can stay terse while
    :attr:`cid` is available for boundary-merge bookkeeping.
    """

    start: int
    stop: int
    cid: int = 0

    def __len__(self) -> int:
        return max(0, self.stop - self.start)

    def __iter__(self):
        yield self.start
        yield self.stop

    def is_empty(self) -> bool:
        """True when the range covers no indices."""
        return self.stop <= self.start


def chunk_bounds(n: int, p: int) -> np.ndarray:
    """Offsets of ``p`` balanced contiguous chunks over ``range(n)``.

    Returns an ``int64`` array of length ``p + 1`` with ``bounds[0] == 0``
    and ``bounds[p] == n``.  The first ``n % p`` chunks are one element
    longer, matching the usual block distribution.  ``p`` may exceed
    ``n``, in which case trailing chunks are empty — the paper's
    algorithms tolerate idle processors.
    """
    require(p >= 1, "number of processors must be >= 1")
    require(n >= 0, "array length must be non-negative")
    if p == 1:  # the serial executor: every kernel call of the serve path
        return np.array([0, n], dtype=np.int64)
    base, extra = divmod(n, p)
    sizes = np.full(p, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(p + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def even_chunks(n: int, p: int) -> list[Chunk]:
    """Balanced contiguous chunks ``[start, stop)`` covering ``range(n)``."""
    bounds = chunk_bounds(n, p)
    return [Chunk(int(bounds[i]), int(bounds[i + 1]), i) for i in range(p)]


def aligned_chunks(sorted_keys: np.ndarray, p: int) -> list[Chunk]:
    """Chunks whose boundaries never split a run of equal keys.

    This is the ablation alternative to the paper's overlap-merge: move
    every chunk boundary left to the start of the key run it falls in,
    so no key spans two chunks.  Load balance degrades on heavy-hitter
    keys (one chunk may absorb a whole celebrity node), which is exactly
    the trade-off the paper's temp-degree merge avoids.
    """
    keys = np.asarray(sorted_keys)
    if keys.ndim != 1:
        raise ValidationError("sorted_keys must be 1-D")
    n = keys.shape[0]
    bounds = chunk_bounds(n, p)
    adj = bounds.copy()
    for i in range(1, p):
        b = int(adj[i])
        if b <= 0 or b >= n:
            continue
        # walk left to the first index of the run containing keys[b]
        start = int(np.searchsorted(keys, keys[b], side="left"))
        adj[i] = start
    # boundaries may now be non-monotone when a run spans several
    # original chunks; clamp to keep ranges valid (some become empty).
    np.maximum.accumulate(adj, out=adj)
    adj[-1] = n
    return [Chunk(int(adj[i]), int(adj[i + 1]), i) for i in range(p)]


def edge_balanced_row_bounds(indptr: np.ndarray, p: int) -> np.ndarray:
    """Row-range boundaries giving each processor ~equal *edge* counts.

    Splitting node ranges evenly (``chunk_bounds``) load-balances
    uniform graphs but not power-law ones: a chunk holding a hub node
    carries most of the edges.  This partitioner cuts at the nodes
    nearest the ``i * m / p`` edge offsets instead — used by SpMV-style
    kernels whose work is per-edge.  Returns node offsets of length
    ``p + 1``.
    """
    require(p >= 1, "number of processors must be >= 1")
    iptr = np.asarray(indptr)
    if iptr.ndim != 1 or iptr.size < 1:
        raise ValidationError("indptr must be a non-empty 1-D array")
    n = iptr.shape[0] - 1
    m = int(iptr[-1])
    targets = (np.arange(p + 1, dtype=np.int64) * m) // p
    bounds = np.searchsorted(iptr, targets, side="left").astype(np.int64)
    np.maximum.accumulate(bounds, out=bounds)
    bounds[0] = 0
    bounds[-1] = n
    return np.minimum(bounds, n)


def balance_ratio(chunks: Sequence[Chunk]) -> float:
    """Max chunk length over mean chunk length (1.0 == perfectly even).

    Used by the chunking ablation bench to quantify how badly aligned
    chunking skews under power-law degree distributions.
    """
    lengths = [len(c) for c in chunks]
    if not lengths or sum(lengths) == 0:
        return 1.0
    mean = sum(lengths) / len(lengths)
    return max(lengths) / mean if mean else 1.0
