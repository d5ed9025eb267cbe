"""Algorithm 9 — the parallel query dispatcher.

:class:`QueryEngine` binds a store to an executor and exposes the three
parallel entry points of Section V: batched neighbourhoods (Algorithm
6), batched edge existence (Algorithm 7), and single-edge existence
with the neighbour row split across processors (Algorithm 8).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..parallel.machine import Executor, SerialExecutor
from .edges import Method, batch_edge_existence, single_edge_exists
from .neighbors import batch_neighbors
from .stores import GraphStore

__all__ = ["QueryEngine"]


class QueryEngine:
    """Parallel query front-end over any :class:`GraphStore`.

    Parameters
    ----------
    store:
        The graph representation to query (CSR, packed CSR, or any
        baseline store).
    executor:
        Where queries run; defaults to serial.  The executor's clock
        accumulates across calls, so throughput benches can read
        ``executor.elapsed_ns()`` after a batch.
    """

    def __init__(self, store: GraphStore, executor: Executor | None = None):
        self.store = store
        self.executor = executor or SerialExecutor()

    # -- Algorithm 6 ----------------------------------------------------
    def neighbors(
        self,
        unodes: Sequence[int] | np.ndarray,
        *,
        prefetch: Sequence[int] | np.ndarray | None = None,
    ):
        """Neighbour rows of a batch of nodes, in query order.

        With *prefetch* (strictly increasing node ids whose rows a
        following :meth:`has_edges` call will want) those rows ride on
        the same store read, and the return value becomes ``(rows,
        fetched)`` — pass ``fetched`` on as ``has_edges(..., rows=)``.
        See :func:`~repro.query.neighbors.batch_neighbors`.
        """
        return batch_neighbors(
            self.store, unodes, self.executor, prefetch=prefetch
        )

    # -- Algorithm 7 ----------------------------------------------------
    def has_edges(
        self,
        edges: Sequence[tuple[int, int]] | np.ndarray,
        *,
        method: Method = "scan",
        rows: tuple | None = None,
    ) -> np.ndarray:
        """Existence of a batch of (u, v) queries.

        *rows* are source rows already fetched by
        :meth:`neighbors` ``(..., prefetch=)``; sources they cover are
        answered from them without a store read.  See
        :func:`~repro.query.edges.batch_edge_existence`.
        """
        return batch_edge_existence(
            self.store, edges, self.executor, method=method, rows=rows
        )

    # -- Algorithm 8 ----------------------------------------------------
    def has_edge(self, u: int, v: int, *, method: Method = "scan") -> bool:
        """One edge query, with u's row split across processors."""
        return single_edge_exists(self.store, u, v, self.executor, method=method)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryEngine(store={self.store!r}, executor={self.executor!r})"
