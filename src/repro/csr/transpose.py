"""Parallel CSR transpose (in-edge view).

The reverse adjacency is the substrate for "who follows u" queries,
PageRank's pull iteration, and weakly-connected components.  The
construction is the Section III pipeline applied to the swapped edge
list: chunked degree count over destinations, prefix-sum offsets, and
a parallel scatter — so the transpose inherits the same simulated
scaling as the forward build.
"""

from __future__ import annotations

from ..parallel.machine import Executor
from ..parallel.sort import sort_edges
from .builder import build_csr
from .graph import CSRGraph

__all__ = ["transpose_csr"]


def transpose_csr(graph: CSRGraph, executor: Executor | None = None) -> CSRGraph:
    """The graph with every edge reversed (weights carried along).

    Equivalent to ``graph.to_scipy().T`` with sorted rows; property
    tested against it.
    """
    src, dst = graph.edges()
    rs, rd, weights = sort_edges(dst, src, graph.values)
    return build_csr(rs, rd, graph.num_nodes, executor, weights=weights)
