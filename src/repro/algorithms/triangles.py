"""Exact triangle counting via the sorted-row membership kernel.

For every node *u* the job enumerates the ordered wedges
``(v, w) ∈ N(u) × N(u), v ≠ w`` and closes them through
:func:`~repro.query.edges.batch_edge_existence` — Algorithm 7's keyed
batch membership test — so the count is exact for any store kind that
answers edge queries, with no adjacency materialisation beyond the
rows already fetched.  On a symmetric (undirected) graph every
triangle closes six ordered wedges, so the undirected triangle count
is ``value / 6``; the job reports the raw ordered-wedge closure count,
which is well-defined on directed graphs too.

Work is budgeted in *wedges* per step: low-degree sources are consumed
in runs until ``slice_wedges`` wedges accumulate, while a hub source
whose ``d·(d-1)`` wedges exceed the budget on its own is sliced along
its own row — ``~slice_wedges / d`` pivot neighbours per step — so
both step cost *and* peak wedge-buffer memory stay bounded for the
serve loop's time-slicing no matter how skewed the degree
distribution is.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, TaskContext
from ..query.edges import batch_edge_existence
from ..query.stores import neighbors_batch, row_decode_cost
from ..utils import require
from .base import AlgorithmStepper

__all__ = ["TriangleCountJob"]

_METHODS = ("scan", "bisect")


class TriangleCountJob(AlgorithmStepper):
    """Exact ordered-wedge triangle count over any graph store.

    One :meth:`step` closes roughly ``slice_wedges`` wedges: it picks
    the next run of sources whose wedge counts fit the budget (or the
    next slice of a hub source's row), bulk-fetches the rows, and
    resolves every wedge with one batched membership call (``method``
    as in :meth:`~repro.query.engine.QueryEngine.has_edges`).  The
    result ``value`` is the exact number of closed ordered wedges
    (``6 ×`` triangles on a symmetric graph), matching brute force.
    """

    name = "triangles"

    def __init__(self, store, executor: Executor | None = None, *,
                 slice_wedges: int = 1 << 15, method: str = "bisect"):
        super().__init__(store, executor)
        require(slice_wedges >= 1, "slice_wedges must be >= 1")
        if method not in _METHODS:
            raise ValidationError(f"unknown search method {method!r}")
        self.slice_wedges = int(slice_wedges)
        self.method = method
        self._u = 0
        self._count = 0
        self._wedges_checked = 0
        self._hub_row: np.ndarray | None = None
        self._hub_vi = 0

    def _advance(self) -> None:
        n = self.store.num_nodes
        if self._hub_row is not None:
            self._close(self._hub_slice())
        elif self._u >= n:
            self._finish_count()
            return
        else:
            sources = self._pick(n)
            if sources.shape[0] == 0:
                self._start_hub()
                self._close(self._hub_slice())
            else:
                self._close(self._batch_wedges(sources))
        self.rounds += 1
        if self._u >= n and self._hub_row is None:
            self._finish_count()

    # -- source selection ----------------------------------------------
    def _pick(self, n: int) -> np.ndarray:
        """The next run of whole sources fitting the wedge budget; empty
        when the next source is a hub that must be row-sliced."""
        store = self.store

        def pick(ctx: TaskContext):
            sources = []
            est = 0
            while self._u < n and est < self.slice_wedges:
                d = store.degree(self._u)
                wedges = d * (d - 1)
                if est + wedges > self.slice_wedges and (
                    sources or wedges > self.slice_wedges
                ):
                    break
                sources.append(self._u)
                est += wedges
                self._u += 1
            ctx.charge(Cost(reads=len(sources) + 1))
            return np.asarray(sources, dtype=np.int64)

        return self.executor.serial(pick, label="algorithms:tri-pick")

    def _start_hub(self) -> None:
        """Fetch the hub source's row once; later steps slice along it."""
        store, caps = self.store, self.caps
        u = self._u

        def fetch_row(ctx: TaskContext):
            flat, _ = neighbors_batch(store, np.asarray([u]), caps)
            pages = (float(store.take_page_touches())
                     if caps.counts_page_touches else 0.0)
            ctx.charge(Cost(
                reads=flat.shape[0],
                bit_ops=row_decode_cost(store, flat.shape[0], caps),
                page_touches=pages,
            ))
            return np.asarray(flat, dtype=np.int64)

        self._hub_row = self.executor.serial(
            fetch_row, label="algorithms:tri-hub-fetch"
        )
        self._hub_vi = 0
        self._u += 1

    # -- wedge construction --------------------------------------------
    def _hub_slice(self) -> np.ndarray:
        """Wedges for the next ~slice_wedges/d pivots of the hub row."""
        row = self._hub_row
        d = row.shape[0]

        def build(ctx: TaskContext):
            k = max(1, self.slice_wedges // max(1, d - 1))
            vs = row[self._hub_vi:self._hub_vi + k]
            v = np.repeat(vs, d)
            w = np.tile(row, vs.shape[0])
            keep = v != w
            wedges = np.stack((v[keep], w[keep]), axis=1)
            ctx.charge(Cost(flops=wedges.shape[0]))
            self._hub_vi += vs.shape[0]
            return wedges

        wedges = self.executor.serial(build, label="algorithms:tri-build")
        if self._hub_vi >= d:
            self._hub_row = None
        return wedges

    def _batch_wedges(self, sources: np.ndarray) -> np.ndarray:
        """All wedges of a run of low-degree sources, rows bulk-fetched
        in parallel chunks."""
        store, caps = self.store, self.caps
        bounds = chunk_bounds(sources.shape[0], self.executor.p)

        def fetch(ctx: TaskContext, cid: int):
            s, e = int(bounds[cid]), int(bounds[cid + 1])
            if e <= s:
                return np.zeros(0, dtype=np.int64), \
                    np.zeros(1, dtype=np.int64)
            flat, offs = neighbors_batch(store, sources[s:e], caps)
            pages = (float(store.take_page_touches())
                     if caps.counts_page_touches else 0.0)
            ctx.charge(Cost(
                reads=flat.shape[0],
                bit_ops=row_decode_cost(store, flat.shape[0], caps),
                page_touches=pages,
            ))
            return np.asarray(flat, dtype=np.int64), offs

        parts = self.executor.map_chunks(
            fetch, range(self.executor.p), label="algorithms:tri-fetch"
        )

        def build(ctx: TaskContext):
            groups = []
            for flat, offs in parts:
                for i in range(offs.shape[0] - 1):
                    row = flat[offs[i]:offs[i + 1]]
                    d = row.shape[0]
                    if d < 2:
                        continue
                    v = np.repeat(row, d)
                    w = np.tile(row, d)
                    keep = v != w
                    groups.append(np.stack((v[keep], w[keep]), axis=1))
            wedges = (np.concatenate(groups) if groups
                      else np.zeros((0, 2), dtype=np.int64))
            ctx.charge(Cost(flops=wedges.shape[0]))
            return wedges

        return self.executor.serial(build, label="algorithms:tri-build")

    # -- wedge resolution ----------------------------------------------
    def _close(self, wedges: np.ndarray) -> None:
        """Resolve a wedge batch through the batched membership kernel."""
        if wedges.shape[0] == 0:
            return
        exists = batch_edge_existence(
            self.store, wedges, self.executor, method=self.method
        )
        self._count += int(exists.sum())
        self._wedges_checked += wedges.shape[0]

    def _finish_count(self) -> None:
        self._finish(
            self._count,
            stats={
                "wedges_checked": self._wedges_checked,
                "triangles_if_symmetric": self._count // 6,
            },
        )
