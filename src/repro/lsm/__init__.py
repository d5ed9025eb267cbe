"""Log-structured mutable graph store (DESIGN.md §10).

Every other store in the repo is immutable once built; this package
adds the first read-write representation.  :class:`LsmStore` layers a
small in-RAM delta — the :class:`DeltaMemtable` of recent edge inserts
and deletes (tombstones) — over one or more immutable base segments of
any registered kind, answering ``neighbors``/``neighbors_batch``/
``has_edge`` snapshot-consistently by merging memtable deltas into
decoded base rows.  :meth:`LsmStore.compact` folds memtable + base
into one fresh segment and atomically swaps it in.  Over one compact
segment (``inner="compact"``) it patches that segment, re-encoding only
the written rows; otherwise it rebuilds through the paper's Alg. 1
chunked prefix-sum builder.  Both give output byte-identical to a
from-scratch build of the same logical edge set.

Registered as ``open_store("lsm", src, dst, n, inner="packed", ...)``;
the serving layer routes :class:`~repro.serve.request.WriteRequest`
traffic to it (see :mod:`repro.serve.server`).
"""

from .build import apply_random_writes, build_lsm_store, writable_overlay
from .memtable import DeltaMemtable
from .store import LsmStats, LsmStore

__all__ = [
    "DeltaMemtable",
    "LsmStats",
    "LsmStore",
    "apply_random_writes",
    "build_lsm_store",
    "writable_overlay",
]
