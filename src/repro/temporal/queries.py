"""Batched parallel queries over temporal stores (Section V meets IV).

Applies the paper's query-array splitting (Algorithm 9's dispatch) to
any temporal store exposing ``edge_active`` / ``neighbors_at`` —
:class:`TemporalCSR`, :class:`EveLog`, and :class:`EdgeLog` all
qualify, which is what lets the temporal-baseline bench compare them
with identical harness code.
"""

from __future__ import annotations

from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..parallel.chunking import chunk_bounds
from ..parallel.cost import Cost
from ..parallel.machine import Executor, SerialExecutor, TaskContext

__all__ = ["TemporalStore", "batch_edge_active", "batch_neighbors_at"]


@runtime_checkable
class TemporalStore(Protocol):
    """Minimal query surface shared by TCSR, EveLog, and EdgeLog."""

    num_nodes: int

    def edge_active(self, u: int, v: int, frame: int) -> bool:
        """Parity-rule activity of (u, v) at *frame*."""
        ...

    def neighbors_at(self, u: int, frame: int) -> np.ndarray:
        """Active neighbours of *u* at *frame*, sorted."""
        ...


def batch_edge_active(
    store: TemporalStore,
    queries: Sequence[tuple[int, int, int]],
    executor: Executor | None = None,
) -> np.ndarray:
    """Evaluate (u, v, frame) activity queries, chunked over processors."""
    executor = executor or SerialExecutor()
    qs = list(queries)
    out = np.zeros(len(qs), dtype=bool)
    bounds = chunk_bounds(len(qs), executor.p)

    def run_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        for i in range(s, e):
            u, v, frame = qs[i]
            out[i] = store.edge_active(int(u), int(v), int(frame))
        ctx.charge(Cost(reads=3 * (e - s), flops=e - s))

    executor.map_chunks(run_chunk, range(executor.p), label="tquery:edge-active")
    return out


def batch_neighbors_at(
    store: TemporalStore,
    queries: Sequence[tuple[int, int]],
    executor: Executor | None = None,
) -> list[np.ndarray]:
    """Evaluate (u, frame) neighbourhood queries, chunked over processors."""
    executor = executor or SerialExecutor()
    qs = list(queries)
    out: list[np.ndarray | None] = [None] * len(qs)
    bounds = chunk_bounds(len(qs), executor.p)

    def run_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        touched = 0
        for i in range(s, e):
            u, frame = qs[i]
            row = store.neighbors_at(int(u), int(frame))
            out[i] = row
            touched += row.shape[0]
        ctx.charge(Cost(reads=2 * (e - s) + touched, writes=touched))

    executor.map_chunks(run_chunk, range(executor.p), label="tquery:neighbors")
    return [row if row is not None else np.zeros(0, np.int64) for row in out]
