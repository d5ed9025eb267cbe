"""Building a :class:`~repro.shard.ShardedStore` from an edge list.

The (u, v)-sorted edge list is split by the partitioner into per-shard
edge lists (a stable grouping, so every shard's slice stays sorted), and
each shard's sub-store is built with the **existing** builders of the
requested inner kind via :func:`repro.open_store`.

Cost accounting: on a :class:`~repro.parallel.SimulatedMachine` the
shards build on their own virtual-processor *groups*
(:meth:`SimulatedMachine.split` — ``p // k`` processors each), and the
parent clock advances by the slowest group
(:meth:`SimulatedMachine.absorb`), so the per-shard construction cost
and the build critical path show up in the machine's trace as one
``shard:build`` phase.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..csr.builder import _NOT_SORTED, check_edge_list, ensure_sorted
from ..errors import NotSortedError
from ..parallel.machine import Executor, SimulatedMachine
from ..parallel.sort import edges_sorted
from ..query.rowcache import RowCache
from ..utils import require
from .partition import make_partitioner
from .store import ShardedStore

__all__ = ["build_sharded_store", "shard_edge_list"]


def shard_edge_list(sources, destinations, partitioner):
    """Group a u-sorted edge list by owning shard.

    Returns a list of ``(src, dst)`` pairs, one per shard, each still
    sorted by (source, destination) — the grouping sort is stable, so
    within a shard the global order is preserved.
    """
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(destinations, dtype=np.int64)
    sid = partitioner.shard_of_array(src)
    order = np.argsort(sid, kind="stable")
    sid_sorted = sid[order]
    bounds = np.searchsorted(sid_sorted, np.arange(partitioner.num_shards + 1))
    src_g, dst_g = src[order], dst[order]
    return [
        (src_g[bounds[s] : bounds[s + 1]], dst_g[bounds[s] : bounds[s + 1]])
        for s in range(partitioner.num_shards)
    ]


def build_sharded_store(
    sources,
    destinations,
    n: int,
    *,
    shards: int = 4,
    partitioner="range",
    inner: str = "packed",
    executor: Executor | None = None,
    sort: bool = False,
    cache_elements: int = 0,
    **inner_opts,
) -> ShardedStore:
    """Edge list → :class:`ShardedStore` of *shards* sub-stores.

    Parameters
    ----------
    shards:
        Shard fan-out.
    partitioner:
        ``"range"`` (edge-balanced contiguous node ranges), ``"hash"``
        (splitmix64), or a ready :class:`~repro.shard.Partitioner`.
    inner:
        Registered store kind each shard is built as (``"csr"``,
        ``"packed"``, ``"gap"``, or any baseline kind); resolved
        through :func:`repro.open_store`.
    executor:
        A :class:`SimulatedMachine` builds every shard on its own
        virtual-processor group and absorbs the critical path; any
        other executor builds the shards one after another on itself.
    sort:
        Sort the edge list by (u, v) first; otherwise it must already
        be (u, v)-sorted (the builders' contract).
    cache_elements:
        When positive, wrap every shard in its own
        :class:`~repro.query.RowCache` of ``cache_elements // shards``
        decoded elements (at least 1), so hot rows are cached next to
        the shard that decodes them.
    inner_opts:
        Passed through to the inner kind's builder (e.g.
        ``gap_encode=True`` for packed shards).
    """
    from ..stores import inner_store_spec, open_store  # deferred: the registry registers us

    inner_store_spec(inner, "sharded")
    require(shards >= 1, "shard count must be >= 1")
    src, dst = check_edge_list(sources, destinations, n)
    if sort:
        src, dst = ensure_sorted(src, dst)
    elif not edges_sorted(src, dst):
        raise NotSortedError(_NOT_SORTED)
    part = make_partitioner(partitioner, shards, src, n)
    per_shard = shard_edge_list(src, dst, part)

    def opts_for(s: int) -> dict:
        # a directory-backed inner kind (``disk``) gets its own
        # sub-directory per shard instead of every shard clobbering the
        # same path
        if inner_opts.get("path") is None:
            return inner_opts
        return {**inner_opts, "path": Path(inner_opts["path"]) / f"shard-{s}"}

    if isinstance(executor, SimulatedMachine):
        groups = executor.split(shards)
        built = [
            open_store(inner, s_src, s_dst, n, executor=groups[s], **opts_for(s))
            for s, (s_src, s_dst) in enumerate(per_shard)
        ]
        executor.absorb(groups, label="shard:build")
    else:
        built = [
            open_store(inner, s_src, s_dst, n, executor=executor, **opts_for(s))
            for s, (s_src, s_dst) in enumerate(per_shard)
        ]
    if cache_elements > 0:
        per_cache = max(1, int(cache_elements) // shards)
        built = [RowCache(store, capacity=per_cache) for store in built]
    return ShardedStore(part, built)
