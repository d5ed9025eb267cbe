"""The store registry and :func:`open_store` — one construction path.

Every queryable representation used to be built through its own
constructor shape (``build_csr(...)``, ``BitPackedCSR.from_csr(...)``,
``AdjacencyListStore(src, dst, n)``, ...), so the CLI, benchmarks, and
tests each hand-rolled five call conventions.  This registry (the
pattern of :mod:`repro.datasets.registry`) gives them one:

    store = repro.open_store("packed", src, dst, n, gap_encode=True)
    store = repro.open_store("sharded", src, dst, n, shards=4,
                             partitioner="hash", inner="packed")

Old constructors keep working — registered builders are thin adapters
over them.  :func:`save_store` / :func:`load_store` are the one ``.npz``
writer and reader of every store with a file form.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import NotSortedError, ReproError, ValidationError
from .parallel.sort import edges_sorted
from .query.stores import WrapperStore

__all__ = [
    "StoreSpec",
    "register_store",
    "get_store_spec",
    "available_stores",
    "inner_store_spec",
    "open_store",
    "save_store",
    "load_store",
]


@dataclass(frozen=True)
class StoreSpec:
    """One registered store kind.

    ``builder`` takes ``(sources, destinations, n, **opts)`` and
    returns a :class:`~repro.query.stores.GraphStore`.  Every builder
    accepts ``executor=`` (parallel kinds run their pipeline on it,
    array-backed baselines ignore it) so callers can pass one
    uniformly.
    """

    kind: str
    builder: Callable
    description: str


_REGISTRY: dict[str, StoreSpec] = {}


def register_store(
    kind: str, builder: Callable, description: str, *, replace: bool = False
) -> StoreSpec:
    """Add a store kind to the registry (idempotent with ``replace=True``)."""
    if kind in _REGISTRY and not replace:
        raise ValidationError(f"store kind '{kind}' already registered")
    spec = StoreSpec(kind, builder, description)
    _REGISTRY[kind] = spec
    return spec


def get_store_spec(kind: str) -> StoreSpec:
    """Look up a registered store kind by name."""
    try:
        return _REGISTRY[kind]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ValidationError(
            f"unknown store kind '{kind}' (known: {known})"
        ) from None


def available_stores() -> list[str]:
    """Names of every registered store kind, sorted."""
    return sorted(_REGISTRY)


def inner_store_spec(inner: str, outer: str) -> StoreSpec:
    """Resolve the nested ``inner=`` kind of a composite store.

    Same lookup as :func:`get_store_spec`, but an unknown kind names
    the composite it was nested in — so ``open_store("sharded", ...,
    inner="btree")`` fails with one line saying *which* level was
    wrong, not just that some kind was unknown.
    """
    try:
        return get_store_spec(inner)
    except ValidationError:
        known = ", ".join(available_stores()) or "<none>"
        raise ValidationError(
            f"unknown inner store kind '{inner}' for {outer} store "
            f"(known: {known})"
        ) from None


def open_store(kind: str, sources, destinations, n: int, **opts):
    """Build a graph store of *kind* from an edge list.

    The single store-construction entry point used by the CLI and the
    benchmarks.  ``opts`` are kind-specific (see each kind's
    description via :func:`get_store_spec`); common ones are
    ``executor=`` and ``sort=``.
    """
    return get_store_spec(kind).builder(sources, destinations, n, **opts)


def npz_kinds() -> dict:
    """Store classes with an ``.npz`` form, by the ``store_kind`` tag of
    their file (a packed file is untagged); each supplies
    ``npz_payload(prefix)`` and ``from_npz_payload(data, prefix)``."""
    from .csr.compact import CompactStore
    from .csr.packed import BitPackedCSR
    from .lsm import LsmStore
    from .reorder import ReorderedStore
    from .shard import ShardedStore

    return {
        "packed": BitPackedCSR,
        "compact": CompactStore,
        "sharded": ShardedStore,
        "reordered": ReorderedStore,
        "lsm": LsmStore,
    }


def save_store(store, path) -> None:
    """Write *store* to an ``.npz`` file (a path or a file object): its
    ``npz_payload()`` plus, for every kind but packed, its tag.  A store
    the format cannot hold raises a ``ValidationError`` before writing."""
    kind = {cls: k for k, cls in npz_kinds().items()}.get(type(store))
    if kind is None:
        raise ValidationError(f"a {type(store).__name__} has no .npz form")
    payload = store.npz_payload()
    if kind != "packed":
        payload = {"store_kind": kind, **payload}
    np.savez_compressed(path, **payload)


def load_store(path):
    """Open a saved store: a disk-store directory or an ``.npz`` file.

    The load-side twin of :func:`open_store`, shared by the CLI and
    :class:`~repro.serve.config.ServerConfig`.  Directories open
    through :func:`~repro.disk.open_disk_store` (checksums verified,
    reordered stores re-wrapped).  An ``.npz`` file (a path or a file
    object) is read once, by its ``store_kind`` tag (untagged: packed),
    and every stored row is then checked sorted.  Any fault — not an
    ``.npz``, an unknown kind or codec, a missing key, an unsorted row —
    is one :class:`~repro.errors.ReproError` line naming the file.
    """
    if not hasattr(path, "read") and Path(path).is_dir():
        from .disk import open_disk_store

        return open_disk_store(Path(path))
    try:
        data = np.load(path)
    except (ValueError, zipfile.BadZipFile) as exc:
        raise ReproError(f"{path}: not a loadable store file ({exc})") from exc
    kinds = npz_kinds()
    try:
        with data:
            kind = str(data["store_kind"]) if "store_kind" in data.files else "packed"
            if kind not in kinds:
                raise ReproError(f"unknown store kind '{kind}' (known kinds: {', '.join(kinds)})")
            store = kinds[kind].from_npz_payload(data)
        _check_stored_order(store)
    except KeyError as exc:  # a truncated or hand-edited file
        key = str(exc.args[0]).removesuffix(" is not a file in the archive")
        raise ReproError(f"{path}: store file lacks key '{key}'") from None
    except ReproError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return store


def _check_stored_order(store) -> None:
    """Decode each stored store under *store* once (``to_csr``) and
    refuse an unsorted row.  Wrappers are walked, not read: a read through an LSM
    would materialise its rows."""
    if isinstance(store, WrapperStore):
        for inner in store._inner_stores():
            _check_stored_order(inner)
        return
    graph = store.to_csr()
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    if not edges_sorted(rows, graph.indices):
        raise NotSortedError(_ROW_NOT_SORTED)


#: the refusal of a stored unsorted row (``load_store``, ``DiskStore.open``)
_ROW_NOT_SORTED = ("a stored row is not sorted (written by an unchecked build); "
                   "rebuild the store from its edge list")


# ----------------------------------------------------------------------
# Built-in kinds: thin adapters over the existing constructors.

def _build_csr(sources, destinations, n, *, executor=None, **opts):
    from .csr.builder import build_csr

    return build_csr(sources, destinations, n, executor, **opts)


def _build_csr_serial(sources, destinations, n, *, executor=None, **opts):
    from .csr.builder import build_csr_serial

    return build_csr_serial(sources, destinations, n, **opts)


def _build_packed(sources, destinations, n, *, executor=None, **opts):
    from .csr.packed import build_bitpacked_csr

    return build_bitpacked_csr(sources, destinations, n, executor, **opts)


def _build_gap(sources, destinations, n, *, executor=None, **opts):
    from .csr.packed import build_bitpacked_csr

    return build_bitpacked_csr(
        sources, destinations, n, executor, gap_encode=True, **opts
    )


def _ignores_executor(cls):
    """Adapter for array-backed baselines built inline from the edge
    list — they have no parallel pipeline, so ``executor``/``sort`` are
    accepted (for call-site uniformity) and ignored."""

    def build(sources, destinations, n, *, executor=None, sort=None, **opts):
        return cls(sources, destinations, n, **opts)

    return build


def _build_sharded(sources, destinations, n, **opts):
    from .shard.build import build_sharded_store

    return build_sharded_store(sources, destinations, n, **opts)


def _build_disk(sources, destinations, n, *, path=None, **opts):
    import tempfile

    from .disk.build import pack_disk_store

    tmpdir = None
    if path is None:
        # no directory requested: anchor the store in a temporary one
        # that lives exactly as long as the store object
        tmpdir = tempfile.TemporaryDirectory(prefix="repro-disk-")
        path = tmpdir.name
    store = pack_disk_store(sources, destinations, n, path, **opts)
    store._tmpdir = tmpdir
    return store.in_original_ids()


def _build_compact(sources, destinations, n, *, executor=None, **opts):
    from .csr.compact import build_compact_csr

    return build_compact_csr(sources, destinations, n, executor, **opts)


def _build_reordered(sources, destinations, n, *, executor=None, **opts):
    from .reorder.store import build_reordered_store

    return build_reordered_store(sources, destinations, n, executor=executor, **opts)


def _build_lsm(sources, destinations, n, **opts):
    from .lsm.build import build_lsm_store

    return build_lsm_store(sources, destinations, n, **opts)


def _register_builtins() -> None:
    from .baselines import (
        AdjacencyListStore,
        AdjacencyMatrixStore,
        BitMatrixStore,
        EdgeListStore,
        UnsortedEdgeListStore,
    )

    builtins = [
        ("csr", _build_csr,
         "uncompressed CSR via the parallel builder "
         "(opts: executor, sort, weights, compact, validate)"),
        ("csr-serial", _build_csr_serial,
         "uncompressed CSR via the one-shot numpy reference builder "
         "(opts: sort)"),
        ("packed", _build_packed,
         "bit-packed CSR, Algorithm 4 "
         "(opts: executor, sort, weights, gap_encode)"),
        ("gap", _build_gap,
         "bit-packed CSR with per-row gap transform "
         "(opts: executor, sort, weights)"),
        ("disk", _build_disk,
         "memory-mapped on-disk packed CSR in a store directory "
         "(opts: path, segment_bytes, codecs, order, executor, sort, "
         "gap_encode)"),
        ("sharded", _build_sharded,
         "partitioned store of per-shard sub-stores "
         "(opts: shards, partitioner, inner, executor, sort, "
         "cache_elements, + inner kind opts)"),
        ("adjlist", _ignores_executor(AdjacencyListStore),
         "per-node sorted neighbour arrays"),
        ("edgelist", _ignores_executor(EdgeListStore),
         "sorted (u, v) arrays, binary-searched"),
        ("edgelist-unsorted", _ignores_executor(UnsortedEdgeListStore),
         "raw (u, v) arrays, linearly scanned"),
        ("adjmatrix", _ignores_executor(AdjacencyMatrixStore),
         "dense 0/1 matrix (small graphs; opts: node_cap)"),
        ("bitmatrix", _ignores_executor(BitMatrixStore),
         "bit-packed dense matrix (opts: node_cap)"),
        ("compact", _build_compact,
         "bit-packed CSR with adaptive per-segment edge codecs "
         "(opts: executor, sort, codecs, segment_bytes)"),
        ("reordered", _build_reordered,
         "id-translating wrapper over a relabeled inner store "
         "(opts: order, inner, executor, + inner kind opts)"),
        ("lsm", _build_lsm,
         "log-structured mutable store: delta memtable over immutable "
         "segments (opts: inner, compact_watermark, executor, "
         "+ inner kind opts)"),
    ]
    for kind, builder, description in builtins:
        if kind not in _REGISTRY:
            register_store(kind, builder, description)


_register_builtins()
