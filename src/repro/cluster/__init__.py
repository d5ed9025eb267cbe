"""Scale-out serving: replicated shard workers behind a scatter-gather router.

The cluster layer composes the repo's existing pieces into one
servable system: the shard layer partitions the graph, each
:class:`ShardWorker` runs the batch kernels of a
:class:`~repro.serve.server.GraphQueryServer` over one shard replica
(replicas of a shard share the same store object, the way replica
processes memory-map one segment file), and the :class:`Router` — the
same :class:`~repro.serve.loop.ServeLoop` front door the monolithic
server is — scatter-gathers every coalesced micro-batch across shards,
balancing load over replicas, hedging stragglers past a
latency-percentile deadline, retrying around injected worker failures,
and enforcing per-tenant admission quotas before fan-out.

Everything runs in deterministic virtual time on a shared
:class:`~repro.serve.request.ManualClock`, with per-worker service
times from :class:`~repro.parallel.SimulatedMachine` processor groups
(``split()`` per worker), so throughput/latency gates are
reproducible in CI.  Construction goes through
:func:`repro.serve.open_server`:

    router = open_server(ServerConfig(
        store_kind="packed", edges=(src, dst, n),
        workers=4, replicas=2, hedge_percentile=75.0,
    ))
"""

from .build import build_cluster, extract_edges
from .router import ClusterStats, Router, WorkerStats
from .worker import ShardWorker

__all__ = [
    "Router",
    "ShardWorker",
    "ClusterStats",
    "WorkerStats",
    "build_cluster",
    "extract_edges",
]
