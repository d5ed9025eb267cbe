"""Building an :class:`~repro.lsm.LsmStore` from an edge list.

The edge list becomes the first immutable base segment (built with the
requested inner kind's registered builder, i.e. the same Alg. 1
pipeline the CSR family uses) and the memtable starts empty.  The LSM
treats the graph as an edge *set* — duplicate ``(u, v)`` pairs are
folded before the base build so compaction (whose output is what a
build of the merged logical set gives) is bit-exact with this
from-scratch path.
"""

from __future__ import annotations

import numpy as np

from ..csr.builder import check_edge_list, ensure_sorted
from ..utils import require
from .store import LsmStore

__all__ = ["build_lsm_store", "writable_overlay", "apply_random_writes"]


def build_lsm_store(
    sources,
    destinations,
    n: int,
    *,
    inner: str = "packed",
    executor=None,
    compact_watermark: int = 0,
    sort: bool = True,
    **inner_opts,
) -> LsmStore:
    """Edge list → :class:`LsmStore` with one base segment.

    Parameters
    ----------
    inner:
        Registered store kind for the base segment (and every segment
        :meth:`~repro.lsm.LsmStore.compact` later builds or patches).
    compact_watermark:
        Memtable entry count that triggers auto-compaction through
        :meth:`~repro.lsm.LsmStore.maybe_compact`; ``0`` disables.
    sort:
        Accepted for call-site uniformity; the edge list is always
        sorted and deduplicated here — set semantics are what make
        compaction bit-exact.
    inner_opts:
        Passed through to the inner kind's builder.
    """
    from ..stores import inner_store_spec, open_store

    inner_store_spec(inner, "lsm")
    src, dst = check_edge_list(sources, destinations, n)
    src, dst = ensure_sorted(src, dst)
    if src.size:
        # fold duplicate (u, v) pairs: the LSM's logical view is a set
        keep = np.ones(src.shape[0], dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
    segments = []
    if src.size or n:
        segments.append(
            open_store(inner, src, dst, n, executor=executor, **inner_opts)
        )
    return LsmStore(
        n,
        segments,
        inner=inner,
        inner_opts=inner_opts,
        compact_watermark=compact_watermark,
        executor=executor,
        num_edges=int(src.size),
    )


def writable_overlay(store, compact_watermark: int = 0) -> LsmStore:
    """The mutable view of any readable *store*, compacting at *compact_watermark*.

    An :class:`LsmStore` is its own overlay (its watermark is set);
    anything else becomes the immutable base segment of a fresh one,
    whose memtable takes the writes.  The one place a read-only store
    is given a write path — ``query --writes``, ``serve-bench
    --write-fraction`` and :class:`~repro.serve.ServerConfig`'s
    ``write_watermark`` all come here.
    """
    if isinstance(store, LsmStore):
        store.compact_watermark = int(compact_watermark)
        return store
    return LsmStore(store.num_nodes, [store], compact_watermark=int(compact_watermark))


def apply_random_writes(
    store: LsmStore,
    count: int,
    *,
    seed: int = 2023,
    delete_fraction: float = 0.2,
) -> dict:
    """Apply *count* seeded random writes to *store*; returns counts.

    Inserts draw uniform random pairs; deletes target existing edges
    when possible (a uniform node's row is sampled), so both write
    kinds and the no-op paths are exercised.  Used by the CLI's
    ``query --writes`` and the benches.
    """
    require(count >= 0, "write count must be non-negative")
    require(0.0 <= delete_fraction <= 1.0, "delete fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    n = store.num_nodes
    applied = {"inserts": 0, "deletes": 0, "noops": 0, "compactions": 0}
    for _ in range(count):
        if rng.random() < delete_fraction:
            u = int(rng.integers(0, n))
            row = store.neighbors(u)
            if row.shape[0]:
                v = int(row[int(rng.integers(0, row.shape[0]))])
            else:
                v = int(rng.integers(0, n))
            ok = store.delete_edge(u, v)
            applied["deletes" if ok else "noops"] += 1
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            ok = store.insert_edge(u, v)
            applied["inserts" if ok else "noops"] += 1
        if store.maybe_compact():
            applied["compactions"] += 1
    return applied
