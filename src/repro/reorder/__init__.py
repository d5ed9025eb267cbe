"""Vertex reordering for compression — orderings and the reordered view.

The compact pipeline's front half: pick a permutation that clusters
popular neighbours into small ids (:mod:`repro.reorder.orderings`),
relabel the edge list before building any store, and wrap the result in
a :class:`~repro.reorder.store.ReorderedStore` so queries still speak
the *original* id space — the stored permutation (and its inverse)
translate on the way in and out, exactly like WebGraph's ``.map``
files.  Downstream, smaller gaps are what the adaptive segment codecs
(:mod:`repro.bitpack.segcodec`) feed on.
"""

from .orderings import (
    available_orderings,
    bfs_order,
    compute_ordering,
    degree_order,
    edge_ordering,
    relabel,
    slashburn_order,
)
from .store import ReorderedStore, build_reordered_store

__all__ = [
    "available_orderings",
    "bfs_order",
    "compute_ordering",
    "degree_order",
    "edge_ordering",
    "relabel",
    "slashburn_order",
    "ReorderedStore",
    "build_reordered_store",
]
