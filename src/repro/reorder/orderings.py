"""Compression orderings: natural, degree, BFS, and SlashBurn.

Compression preprocessing in the WebGraph tradition [2]: gap codes pay
for *large* gaps, so relabeling nodes to put popular neighbours close
together shrinks the encoded column array.  Each ordering maps a
:class:`~repro.csr.graph.CSRGraph` to a permutation
``perm[old_id] = new_id`` and :func:`relabel` applies one.  ``degree``
puts hubs at small ids (most gaps then point into a dense prefix),
``bfs`` takes locality from traversal; ``slashburn`` implements the
hub-peeling scheme of Kang & Faloutsos (PAPERS.md; "Beyond Caveman
Communities"): repeatedly remove the top ``hub_fraction`` highest-degree
hubs (assigning them the smallest remaining ids), find the connected
components of what is left, push every non-giant "spoke" component to
the largest remaining ids, and recurse on the giant component.  Hubs
crowd the id-space front and spokes pack contiguously at the back, so
both ends produce small gaps under delta codes.

All orderings are deterministic: ties break on the original node id.
"""

from __future__ import annotations

import numpy as np

from ..csr.builder import build_csr_serial
from ..csr.graph import CSRGraph
from ..errors import ValidationError
from ..parallel.sort import ensure_sorted, sort_edges
from ..utils import require

__all__ = [
    "available_orderings",
    "compute_ordering",
    "edge_ordering",
    "degree_order",
    "bfs_order",
    "slashburn_order",
    "check_permutation",
    "relabel",
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


def check_permutation(perm, n: int) -> np.ndarray:
    """*perm* as an ``int64`` array, checked to be a permutation of
    ``range(n)``: the shape, then every entry's range, then that each
    id appears once.  Each fault is one
    :class:`~repro.errors.ValidationError` line."""
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (n,):
        raise ValidationError(f"permutation must have shape ({n},)")
    if n and (int(p.min()) < 0 or int(p.max()) >= n):
        raise ValidationError(f"permutation entries must lie in [0, {n})")
    seen = np.zeros(n, dtype=bool)
    seen[p] = True
    if not seen.all():
        raise ValidationError("perm must be a permutation of range(n)")
    return p


def relabel(graph: CSRGraph, perm: np.ndarray) -> CSRGraph:
    """The same graph with node ``u`` renamed to ``perm[u]``.

    *perm* must be a permutation of ``range(n)``; weights follow their
    edges.
    """
    n = graph.num_nodes
    p = check_permutation(perm, n)
    src, dst = graph.edges()
    ns, nd, vals = sort_edges(p[src], p[dst], graph.values)
    g = build_csr_serial(ns, nd, n)
    return CSRGraph(g.indptr, g.indices, vals, validate=False)


def _natural_order(graph: CSRGraph) -> np.ndarray:
    """The identity permutation — build order unchanged."""
    return np.arange(graph.num_nodes, dtype=np.int64)


def _bfs_from_hub(graph: CSRGraph) -> np.ndarray:
    """BFS order seeded at the highest-total-degree node."""
    if graph.num_nodes == 0:
        return np.zeros(0, dtype=np.int64)
    src, dst = graph.edges()
    total = graph.degrees() + np.bincount(dst, minlength=graph.num_nodes)
    return bfs_order(graph, source=int(np.argmax(total)))


def slashburn_order(
    graph: CSRGraph, *, hub_fraction: float = 0.02, max_rounds: int = 64
) -> np.ndarray:
    """SlashBurn-style hub-peeling permutation.

    Per round, over the still-active node set: the ``k`` highest-degree
    hubs (``k = ceil(hub_fraction * active)``) take the smallest free
    ids at the *front*; connected components of the remainder are found
    by vectorised label propagation; every component except the largest
    is laid out at the *back* (largest spoke first, nodes ascending);
    the giant component stays active for the next round.  After
    ``max_rounds`` (or once the active set fits inside one hub batch)
    leftovers are emitted degree-descending at the front.
    """
    require(0.0 < hub_fraction <= 1.0, "hub_fraction must be in (0, 1]")
    require(max_rounds >= 1, "max_rounds must be positive")
    n = graph.num_nodes
    perm = np.empty(n, dtype=np.int64)
    if n == 0:
        return perm
    src, dst = graph.edges()
    # symmetrise: SlashBurn peels on connectivity, not direction
    eu = np.concatenate([src, dst])
    ev = np.concatenate([dst, src])
    total_deg = np.bincount(eu, minlength=n)

    active = np.ones(n, dtype=bool)
    front = 0  # next id handed out at the low end
    back = n  # one past the next id handed out at the high end

    for _ in range(max_rounds):
        na = int(active.sum())
        if na == 0:
            break
        k = max(1, int(np.ceil(hub_fraction * na)))
        if k >= na:
            break
        # degrees restricted to active-active edges
        live = active[eu] & active[ev]
        deg = np.bincount(eu[live], minlength=n)
        cand = np.flatnonzero(active)
        order = np.argsort(-deg[cand], kind="stable")  # cand ascends: ties by id
        hubs = cand[order[:k]]
        perm[hubs] = front + np.arange(k, dtype=np.int64)
        front += k
        active[hubs] = False

        # connected components of the remainder: min-label propagation
        rem_mask = active[eu] & active[ev]
        ru, rv = eu[rem_mask], ev[rem_mask]
        label = np.arange(n, dtype=np.int64)
        for _ in range(200):
            new = label.copy()
            if ru.size:
                np.minimum.at(new, ru, label[rv])
            new = np.minimum(new, new[new])
            new = np.minimum(new, new[new])
            if np.array_equal(new, label):
                break
            label = new
        rem_nodes = np.flatnonzero(active)
        roots = label[rem_nodes]
        uniq_roots, comp_idx, comp_sizes = np.unique(
            roots, return_inverse=True, return_counts=True
        )
        giant = int(np.argmax(comp_sizes))
        spoke_mask = comp_idx != giant
        spokes = rem_nodes[spoke_mask]
        if spokes.size:
            sizes = comp_sizes[comp_idx[spoke_mask]]
            # largest spoke component first, then by root id, nodes ascending
            roots = uniq_roots[comp_idx[spoke_mask]]
            laid = sort_edges(sizes.max() - sizes, roots, spokes)[2]
            perm[laid] = back - laid.shape[0] + np.arange(laid.shape[0], dtype=np.int64)
            back -= laid.shape[0]
            active[spokes] = False

    leftovers = np.flatnonzero(active)
    if leftovers.size:
        order = np.argsort(-total_deg[leftovers], kind="stable")
        perm[leftovers[order]] = front + np.arange(leftovers.shape[0], dtype=np.int64)
        front += leftovers.shape[0]
    assert front == back, "id ranges must meet exactly"
    return perm


_ORDERINGS = {
    "natural": _natural_order,
    "degree": degree_order,
    "bfs": _bfs_from_hub,
    "slashburn": slashburn_order,
}


def available_orderings() -> list[str]:
    """Names of every registered ordering, sorted."""
    return sorted(_ORDERINGS)


def compute_ordering(name: str, graph: CSRGraph, **kwargs) -> np.ndarray:
    """Compute the named ordering's permutation for *graph*.

    Unknown names raise a one-line :class:`~repro.errors.ValidationError`
    listing the registered choices.
    """
    try:
        fn = _ORDERINGS[name]
    except KeyError:
        known = ", ".join(sorted(_ORDERINGS))
        raise ValidationError(f"unknown ordering '{name}' (known: {known})") from None
    return fn(graph, **kwargs)


def edge_ordering(name: str, sources, destinations, num_nodes: int) -> np.ndarray:
    """:func:`compute_ordering` for the graph of an edge list in any
    order — what a builder calls before it relabels and packs."""
    src, dst = ensure_sorted(sources, destinations)
    return compute_ordering(name, build_csr_serial(src, dst, num_nodes))
