"""Node relabeling and subgraph extraction.

Compression preprocessing in the WebGraph tradition [2]: gap codes pay
for *large* gaps, so relabeling nodes to put popular neighbours close
together shrinks the encoded column array.  Two orders are provided —
degree-descending (hubs get small ids, so most gaps point into a dense
prefix) and BFS order (locality from traversal).  ``relabel`` applies
any permutation; ``induced_subgraph`` extracts and compacts a node
subset, the everyday analytics operation.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..utils import require
from ..parallel.sort import sort_edges
from .builder import build_csr_serial
from .graph import CSRGraph

__all__ = [
    "degree_order",
    "bfs_order",
    "relabel",
    "induced_subgraph",
]


def degree_order(graph: CSRGraph) -> np.ndarray:
    """Permutation ``perm[old_id] = new_id`` by descending total degree.

    Ties break on the old id, so the order is deterministic.
    """
    out_deg = graph.degrees()
    src, dst = graph.edges()
    in_deg = np.bincount(dst, minlength=graph.num_nodes)
    total = out_deg + in_deg
    ranking = np.argsort(-total, kind="stable")
    perm = np.empty(graph.num_nodes, dtype=np.int64)
    perm[ranking] = np.arange(graph.num_nodes, dtype=np.int64)
    return perm


def bfs_order(graph: CSRGraph, source: int = 0) -> np.ndarray:
    """Permutation assigning ids in BFS discovery order from *source*.

    Unreached nodes keep their relative order after all reached ones.
    """
    require(0 <= source < max(1, graph.num_nodes), "source out of range")
    n = graph.num_nodes
    perm = np.full(n, -1, dtype=np.int64)
    next_id = 0
    queue = [source]
    perm[source] = next_id
    next_id += 1
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in graph.neighbors(u).tolist():
            if perm[v] < 0:
                perm[v] = next_id
                next_id += 1
                queue.append(v)
    for u in range(n):
        if perm[u] < 0:
            perm[u] = next_id
            next_id += 1
    return perm


def relabel(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """The same graph with node ``u`` renamed to ``perm[u]``.

    *perm* must be a permutation of ``range(n)``; weights follow their
    edges.
    """
    p = np.asarray(perm, dtype=np.int64)
    n = graph.num_nodes
    if p.shape != (n,):
        raise ValidationError(f"permutation must have shape ({n},)")
    seen = np.zeros(n, dtype=bool)
    seen[p] = True
    if not seen.all():
        raise ValidationError("perm must be a permutation of range(n)")
    src, dst = graph.edges()
    ns, nd, vals = sort_edges(p[src], p[dst], graph.values)
    g = build_csr_serial(ns, nd, n)
    return CSRGraph(g.indptr, g.indices, vals, validate=False)


def induced_subgraph(
    graph: CSRGraph, nodes
) -> tuple[CSRGraph, np.ndarray]:
    """The subgraph induced by *nodes*, with compact relabeling.

    Returns ``(subgraph, kept)`` where ``kept`` is the sorted original
    ids; node ``kept[i]`` becomes id ``i`` in the subgraph.
    """
    keep = np.unique(np.asarray(nodes, dtype=np.int64))
    if keep.size and (int(keep.min()) < 0 or int(keep.max()) >= graph.num_nodes):
        raise ValidationError("subgraph nodes out of range")
    lookup = np.full(graph.num_nodes, -1, dtype=np.int64)
    lookup[keep] = np.arange(keep.shape[0], dtype=np.int64)
    src, dst = graph.edges()
    mask = (lookup[src] >= 0) & (lookup[dst] >= 0)
    vals = None if graph.values is None else np.asarray(graph.values)[mask]
    ns, nd, vals = sort_edges(lookup[src[mask]], lookup[dst[mask]], vals)
    g = build_csr_serial(ns, nd, keep.shape[0])
    return CSRGraph(g.indptr, g.indices, vals, validate=False), keep
