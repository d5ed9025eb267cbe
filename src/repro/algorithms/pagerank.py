"""Store-generic PageRank via batched row extraction (push style).

The same power iteration as :func:`repro.csr.pagerank` — damping,
uniform dangling-mass redistribution, L1 convergence — but driven
entirely through :func:`~repro.query.stores.neighbors_batch`, so it
runs over any registered store kind without materialising a transpose:
each sweep *pushes* ``rank[u] / deg(u)`` along u's out-edges into a
next-rank accumulator instead of *pulling* along in-edges.  The pushed
sum is mathematically identical to the reference's pull; only the
floating-point summation order differs, so parity is to tight
tolerance rather than bit-for-bit.

Out-degrees are learned during the first sweep from the same row
fetches that feed it (each chunk writes its disjoint degree slice), so
no extra full pass over the store is ever made.
"""

from __future__ import annotations

import numpy as np

from ..parallel.chunking import chunk_bounds, edge_balanced_row_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, TaskContext
from ..query.stores import neighbors_batch, row_decode_cost
from ..utils import require
from .base import AlgorithmStepper

__all__ = ["PageRankJob"]


class PageRankJob(AlgorithmStepper):
    """Iterative PageRank over any graph store.

    One :meth:`step` pushes the contributions of at most
    ``slice_nodes`` source nodes (chunked across the executor); a
    sweep over all ``n`` sources is one power iteration.  The run
    stops when the L1 delta between sweeps drops under ``tol``
    (``converged=True``) or after ``max_iter`` sweeps.  The result
    ``value`` is the float64 rank vector, matching
    :func:`repro.csr.pagerank` to summation-order tolerance.
    """

    name = "pagerank"

    def __init__(self, store, executor: Executor | None = None, *,
                 damping: float = 0.85, tol: float = 1e-8,
                 max_iter: int = 100, slice_nodes: int = 8192):
        super().__init__(store, executor)
        require(0.0 < damping < 1.0, "damping must be in (0, 1)")
        require(tol > 0 and max_iter >= 1, "tol and max_iter must be positive")
        require(slice_nodes >= 1, "slice_nodes must be >= 1")
        self.damping = float(damping)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.slice_nodes = int(slice_nodes)
        n = store.num_nodes
        self._rank = np.full(n, 1.0 / n, dtype=np.float64) if n else \
            np.zeros(0, dtype=np.float64)
        self._next = np.zeros(n, dtype=np.float64)
        self._out_deg = np.zeros(n, dtype=np.int64)
        self._cursor = 0
        self._delta = float("inf")

    def _advance(self) -> None:
        n = self.store.num_nodes
        if n == 0:
            self._finish(np.zeros(0, dtype=np.float64),
                         stats={"delta": 0.0})
            return
        lo = self._cursor
        hi = min(n, lo + self.slice_nodes)
        if self.rounds == 0:
            # degrees are unknown until the first sweep finishes
            bounds = lo + chunk_bounds(hi - lo, self.executor.p)
        else:
            # cut the slice at ~equal edge counts so one hub row can't
            # serialise the whole push phase on a power-law graph
            local_ptr = np.zeros(hi - lo + 1, dtype=np.int64)
            np.cumsum(self._out_deg[lo:hi], out=local_ptr[1:])
            bounds = lo + edge_balanced_row_bounds(
                local_ptr, self.executor.p
            )
        store, caps = self.store, self.caps
        rank = self._rank
        out_deg = self._out_deg
        first_sweep = self.rounds == 0

        def push(ctx: TaskContext, cid: int):
            s, e = int(bounds[cid]), int(bounds[cid + 1])
            if e <= s:
                return np.zeros(0, dtype=np.int64), np.zeros(0)
            us = np.arange(s, e, dtype=np.int64)
            flat, offs = neighbors_batch(store, us, caps)
            pages = (float(store.take_page_touches())
                     if caps.counts_page_touches else 0.0)
            counts = np.diff(offs)
            if first_sweep:
                out_deg[s:e] = counts
            contrib = np.zeros(e - s, dtype=np.float64)
            np.divide(rank[s:e], counts, out=contrib, where=counts > 0)
            ctx.charge(Cost(
                reads=(e - s) + flat.shape[0],
                flops=(e - s) + flat.shape[0],
                bit_ops=row_decode_cost(store, flat.shape[0], caps),
                page_touches=pages,
            ))
            return np.asarray(flat, dtype=np.int64), \
                np.repeat(contrib, counts)

        parts = self.executor.map_chunks(
            push, range(self.executor.p), label="algorithms:pagerank-push"
        )

        def scatter(ctx: TaskContext):
            pushed = 0
            for dst, w in parts:
                if dst.shape[0]:
                    np.add.at(self._next, dst, w)
                    pushed += dst.shape[0]
            ctx.charge(Cost(writes=pushed, flops=pushed))

        self.executor.serial(scatter, label="algorithms:pagerank-scatter")
        self._cursor = hi
        if self._cursor >= n:
            self._settle_sweep(n)

    def _settle_sweep(self, n: int) -> None:
        """Close one power iteration: damping, dangling redistribution,
        convergence check."""

        def settle(ctx: TaskContext):
            dangling = self._out_deg == 0
            dangling_mass = float(self._rank[dangling].sum())
            self._next *= self.damping
            self._next += (1.0 - self.damping
                           + self.damping * dangling_mass) / n
            delta = float(np.abs(self._next - self._rank).sum())
            ctx.charge(Cost(reads=2 * n, writes=n, flops=4 * n))
            return delta

        self._delta = self.executor.serial(
            settle, label="algorithms:pagerank-settle"
        )
        self._rank, self._next = self._next, self._rank
        self._next[:] = 0.0
        self._cursor = 0
        self.rounds += 1
        converged = self._delta < self.tol
        if converged or self.rounds >= self.max_iter:
            self._finish(self._rank, converged=converged,
                         stats={"delta": self._delta,
                                "iterations": self.rounds})
