"""Store-generic frontier BFS (sparse/dense frontier switching).

The level-synchronous pattern of :func:`repro.csr.bfs_levels`, lifted
off the concrete CSR onto the :class:`~repro.query.stores.GraphStore`
surface: each level's frontier expands through bulk
:func:`~repro.query.stores.neighbors_batch` calls chunked across the
executor, and discovered nodes accumulate in a dense next-level bitmap
so the result is independent of how the frontier was sliced.

Two frontier modes, chosen per level by frontier size (the
direction-switching idea of Beamer-style BFS adapted to this
substrate):

* **sparse** — small frontiers: each chunk deduplicates its discovered
  nodes (``np.unique``) before touching the shared bitmap, paying
  compare ops to keep the serial merge proportional to *distinct*
  candidates;
* **dense** — large frontiers (``>= dense_threshold * n`` nodes):
  deduplication would inspect nearly every edge for little reduction,
  so chunks scatter their raw neighbour lists straight into the
  bitmap.

Either way the level sets are identical — the bitmap is the dedup of
last resort — so levels are bit-exact against the reference for every
store kind, executor width, and slice size (property-tested).
"""

from __future__ import annotations

import numpy as np

from ..errors import QueryError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, TaskContext
from ..query.stores import neighbors_batch, row_decode_cost
from ..utils import require
from .base import AlgorithmStepper

__all__ = ["BfsJob"]


class BfsJob(AlgorithmStepper):
    """Frontier BFS from ``source`` over any graph store.

    One :meth:`step` expands at most ``slice_nodes`` frontier nodes
    (chunked across the executor), so a serve loop can interleave
    steps with point-query batches; ``dense_threshold`` is the
    frontier-fraction-of-``n`` above which per-chunk dedup is skipped.
    The result ``value`` is the int64 distance array (-1 when
    unreachable), bit-exact vs :func:`repro.csr.bfs_levels`.
    """

    name = "bfs"

    def __init__(self, store, executor: Executor | None = None, *,
                 source: int = 0, slice_nodes: int = 4096,
                 dense_threshold: float = 1 / 16):
        super().__init__(store, executor)
        n = store.num_nodes
        if not (0 <= source < n):
            raise QueryError(f"source {source} out of range [0, {n})")
        require(slice_nodes >= 1, "slice_nodes must be >= 1")
        require(0.0 < dense_threshold <= 1.0,
                "dense_threshold must be in (0, 1]")
        self.source = int(source)
        self.slice_nodes = int(slice_nodes)
        self.dense_threshold = float(dense_threshold)
        self._levels = np.full(n, -1, dtype=np.int64)
        self._levels[self.source] = 0
        self._frontier = np.asarray([self.source], dtype=np.int64)
        self._cursor = 0
        self._depth = 0
        self._next_mask = np.zeros(n, dtype=bool)
        self._dense = False
        self._dense_rounds = 0
        self._sparse_rounds = 0
        self._edges_scanned = 0

    def _advance(self) -> None:
        chunk = self._frontier[self._cursor:self._cursor + self.slice_nodes]
        bounds = chunk_bounds(chunk.shape[0], self.executor.p)
        store, caps, dense = self.store, self.caps, self._dense

        def expand(ctx: TaskContext, cid: int):
            s, e = int(bounds[cid]), int(bounds[cid + 1])
            if e <= s:
                return np.zeros(0, dtype=np.int64)
            flat, _ = neighbors_batch(store, chunk[s:e], caps)
            pages = (float(store.take_page_touches())
                     if caps.counts_page_touches else 0.0)
            out = np.asarray(flat, dtype=np.int64)
            cost = Cost(
                reads=out.shape[0],
                bit_ops=row_decode_cost(store, out.shape[0], caps),
                page_touches=pages,
            )
            if not dense:
                out = np.unique(out)
                # sort-based dedup over the chunk's edge endpoints
                cost = cost + Cost(flops=flat.shape[0])
            ctx.charge(cost)
            return out

        mode = "dense" if dense else "sparse"
        parts = self.executor.map_chunks(
            expand, range(self.executor.p), label=f"algorithms:bfs-expand-{mode}"
        )

        def merge(ctx: TaskContext):
            touched = 0
            for part in parts:
                if part.shape[0]:
                    self._next_mask[part] = True
                    touched += part.shape[0]
            ctx.charge(Cost(writes=touched))
            return touched

        self._edges_scanned += self.executor.serial(
            merge, label="algorithms:bfs-merge"
        )
        self._cursor += chunk.shape[0]
        if self._cursor < self._frontier.shape[0]:
            return
        self._settle_level()

    def _settle_level(self) -> None:
        """Close the current level: promote the bitmap to the next
        frontier, stamp distances, and pick the next level's mode."""

        def settle(ctx: TaskContext):
            cand = np.flatnonzero(self._next_mask)
            fresh = cand[self._levels[cand] < 0]
            self._levels[fresh] = self._depth + 1
            self._next_mask[cand] = False
            ctx.charge(Cost(reads=cand.shape[0], writes=fresh.shape[0]))
            return fresh

        fresh = self.executor.serial(settle, label="algorithms:bfs-settle")
        if self._dense:
            self._dense_rounds += 1
        else:
            self._sparse_rounds += 1
        self.rounds += 1
        self._depth += 1
        self._frontier = fresh
        self._cursor = 0
        n = max(1, self.store.num_nodes)
        self._dense = fresh.shape[0] >= self.dense_threshold * n
        if fresh.shape[0] == 0:
            self._finish(
                self._levels,
                stats={
                    "max_depth": int(self._levels.max()),
                    "reached": int((self._levels >= 0).sum()),
                    "dense_rounds": self._dense_rounds,
                    "sparse_rounds": self._sparse_rounds,
                    "edges_scanned": self._edges_scanned,
                },
            )
