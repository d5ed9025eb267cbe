"""`build_cluster` — a :class:`ServerConfig` into a running cluster.

Topology: ``config.workers`` total worker loops serving
``shards = workers // replicas`` shards with ``replicas`` workers
each; worker ``w`` serves shard ``w // replicas``.  Shard stores come
from one of three sources:

* an edge list (``config.edges`` / ``store_kind``) — built by
  :func:`~repro.shard.build.build_sharded_store`, each shard of
  ``store_kind`` (else :data:`SHARD_INNER`) spanning the full global
  node space (a packed shard stores offsets for its row window only);
* a ready :class:`~repro.shard.ShardedStore` — its sub-stores and
  partitioner are adopted as-is (the shard layout was already chosen);
* any other ready/loadable store — its edges are extracted in one
  whole-graph batch and sharded as above (fine at bench scale; pass
  edges directly to skip the extraction walk).

All replicas of one shard share the **same store object** — the
in-process analogue of replica processes memory-mapping one read-only
segment file; and when service times are simulated, one parent
:class:`~repro.parallel.SimulatedMachine` is ``split()`` into a
processor group per worker, so per-worker kernel costs come from the
same cost model the build and query benches use.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..obs import Tracer
from ..parallel.machine import SimulatedMachine
from ..query.stores import neighbors_batch
from ..serve.config import ServerConfig
from ..serve.request import ManualClock
from ..serve.server import GraphQueryServer
from ..shard.build import build_sharded_store
from ..shard.store import ShardedStore
from .router import Router
from .worker import ShardWorker

__all__ = ["build_cluster", "extract_edges"]

#: Store kind of each shard when the cluster has to extract the edges of
#: a ready store itself (an edge list names its own ``store_kind``).
SHARD_INNER = "packed"


def extract_edges(store):
    """Recover the (u-sorted) edge list of any readable store.

    One whole-graph batch read; used when a cluster is asked to serve
    a pre-built monolithic store without its edge list.
    """
    nodes = np.arange(int(store.num_nodes), dtype=np.int64)
    flat, offsets = neighbors_batch(store, nodes)
    return np.repeat(nodes, np.diff(offsets)), flat.astype(np.int64, copy=False)


def _shard_stores(config: ServerConfig):
    """Resolve (per-shard stores, partitioner)."""
    store = None if config.edges is not None else config.resolve_store()
    if not isinstance(store, ShardedStore):
        if store is None:
            # edges passed with an explicit kind build shards of that kind
            edges, kind, opts = config.edges, config.store_kind, config.store_opts
        else:
            edges, kind, opts = (*extract_edges(store), store.num_nodes), SHARD_INNER, {}
        src, dst, n = edges
        store = build_sharded_store(
            src, dst, int(n), shards=config.shards, partitioner=config.partitioner,
            inner=kind, **{**opts, "sort": True},
        )
    if len(store.shards) != config.shards:
        raise ValidationError(
            f"sharded store has {len(store.shards)} shards but the "
            f"cluster layout needs {config.shards} "
            f"(workers={config.workers}, replicas={config.replicas})"
        )
    return list(store.shards), store.partitioner


def build_cluster(config: ServerConfig, *, clock: ManualClock | None = None
                  ) -> Router:
    """Materialise the cluster a :class:`ServerConfig` describes.

    Called by :func:`~repro.serve.config.open_server` when the config
    asks for cluster serving; returns the ready :class:`Router`.
    *clock* is the shared virtual clock (a fresh
    :class:`~repro.serve.request.ManualClock` by default — cluster
    serving always runs in virtual time).
    """
    clock = clock if clock is not None else ManualClock()
    if not isinstance(clock, ManualClock):
        raise ValidationError(
            "cluster serving runs in virtual time and needs a ManualClock"
        )
    stores, part = _shard_stores(config)
    replicas = config.replicas
    # one tracer shared by the router and every worker's server, so
    # scatter spans and worker-side kernel spans form one tree
    tracer = (
        Tracer(config.obs, clock=clock)
        if config.obs is not None and config.obs.enabled
        else None
    )
    machines: list[SimulatedMachine | None]
    if config.service == "simulated":
        parent = (config.executor
                  if isinstance(config.executor, SimulatedMachine)
                  else SimulatedMachine(config.workers))
        machines = parent.split(config.workers)
    else:
        machines = [None] * config.workers
    workers = []
    for w in range(config.workers):
        shard = w // replicas
        server = GraphQueryServer(
            stores[shard],
            machines[w],
            config=config.with_overrides(
                store=None, store_path=None, store_kind=None, edges=None,
                workers=1, replicas=1, tenant_quotas={},
                hedge_percentile=None, cluster=False, obs=None,
            ),
            clock=clock,
            tracer=tracer,
        )
        workers.append(ShardWorker(w, shard, server, machine=machines[w]))
    return Router(workers, part, config, clock=clock, tracer=tracer)
