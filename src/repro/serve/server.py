"""The query server: workload stream → coalescer → batched kernels.

:class:`GraphQueryServer` is the monolithic front door: the shared
:class:`~repro.serve.loop.ServeLoop` accepts *independent* requests one
at a time, bounds the queue, and turns it into micro-batches; this
class dispatches each closed batch through a
:class:`~repro.query.engine.QueryEngine` (so any
:class:`~repro.query.stores.GraphStore`, optional
:class:`~repro.query.rowcache.RowCache`, and any
:class:`~repro.parallel.machine.Executor` all plug in unchanged),
demuxes the kernel outputs back onto each ticket's
:class:`~repro.serve.request.ReplySlot`, and applies writes inline.

Replies are **bit-exact** to direct per-request ``QueryEngine`` calls:
dispatch runs the very same Algorithm 6/7 batch kernels, and in-batch
dedup only routes several tickets to one kernel lane — it never
changes what the kernel computes (property-tested across stores,
executors, and admission policies in ``tests/serve``).

The kernel step itself — :meth:`GraphQueryServer.run_kernels`, distinct
nodes and edges in, rows and flags out — is what a cluster's
:class:`~repro.cluster.worker.ShardWorker` calls on the arrays the
router scattered to it; only a monolithic server runs the loop around it.
"""

from __future__ import annotations

import time

import numpy as np

from ..errors import ReproError
from ..obs import NULL_TRACER, Tracer, register_server
from ..parallel.machine import Executor
from ..query.capabilities import capabilities
from ..query.edges import Method
from ..query.engine import QueryEngine
from ..query.rowcache import RowCache
from .coalescer import MicroBatch
from .config import ServerConfig
from .loop import ServeLoop
from .request import DONE, ReplySlot, WriteRequest, default_clock

__all__ = ["GraphQueryServer"]

#: How the edge kernel probes a row on the serving path.
EDGE_METHOD: Method = "scan"


class GraphQueryServer(ServeLoop):
    """Micro-batching front-end over a graph store.

    Parameters
    ----------
    store:
        Any :class:`~repro.query.stores.GraphStore` (CSR, packed CSR,
        baselines, or an already-wrapped :class:`RowCache`).
    executor:
        Where batches run; defaults to the engine's serial executor.
    config:
        A :class:`~repro.serve.config.ServerConfig` carrying every
        serving knob (cache elements, coalescer bounds, admission
        bounds) — the construction path
        :func:`~repro.serve.config.open_server` uses.
    clock:
        Nanosecond monotonic clock for every lifecycle stamp;
        injectable (:class:`~repro.serve.request.ManualClock`) for
        deterministic tests and virtual-time latency studies.
    tracer:
        An explicit :class:`~repro.obs.Tracer` to share (the cluster
        passes one tracer to every shard worker); defaults to a fresh
        tracer when ``config.obs`` asks for one, else the no-op
        :data:`~repro.obs.NULL_TRACER`.
    """

    _read_only = (
        "store does not support writes (serve writes need a "
        "write-capable store such as the lsm kind)"
    )

    def __init__(
        self,
        store,
        executor: Executor | None = None,
        *,
        config: ServerConfig | None = None,
        clock=default_clock,
        tracer=None,
        **removed,
    ):
        if removed:
            raise ReproError(
                f"GraphQueryServer(store, **kwargs) was removed: pass "
                f"{', '.join(sorted(removed))} via a repro.serve."
                f"ServerConfig and call open_server(config)"
            )
        if config is None:
            config = ServerConfig()
        if tracer is None:
            tracer = (
                Tracer(config.obs, clock=clock)
                if config.obs is not None and config.obs.enabled
                else NULL_TRACER
            )
        super().__init__(config, clock=clock, tracer=tracer)
        if config.cache_elements and not isinstance(store, RowCache):
            store = RowCache(store, capacity=config.cache_elements)
        self.engine = QueryEngine(store, executor)
        # the write target is the store under any RowCache wrap — a
        # WriteRequest mutates it directly, then invalidates the
        # touched row so no pre-write copy can ever be served
        target = self._job_target()[0]
        if capabilities(target).supports_writes:
            self._write_target = target
        register_server(self.registry, self, prefix="server")

    @property
    def store(self):
        """The (possibly cache-wrapped) store batches run against."""
        return self.engine.store

    @property
    def row_cache(self) -> RowCache | None:
        """The wrapping :class:`RowCache`, when one is in the path."""
        store = self.engine.store
        return store if isinstance(store, RowCache) else None

    def _job_target(self):
        """Jobs (and writes) run on the raw store under any cache wrap,
        on the server's own executor."""
        store = self.engine.store
        if isinstance(store, RowCache):
            store = store.store
        return store, self.engine.executor

    # -- writes ----------------------------------------------------------
    def _apply_write(self, request: WriteRequest, slot: ReplySlot,
                     now: float) -> ReplySlot:
        """Apply one edge mutation inline, bypassing the coalescer.

        Writes need no batching (each is one memtable upsert) and must
        be visible to every later read, so they execute at submit time:
        mutate the write target, invalidate the touched row in the
        cache, and run the watermark compaction check.  The slot
        resolves DONE with the applied/no-op bool immediately.
        """
        root = self._traced.get(request.ticket)
        wsid = None
        if root is not None:
            wsid = self.tracer.begin(
                "write", "lsm", ticket=request.ticket, parent=root,
                start_ns=now, meta={"op": request.op},
            )
        t0 = time.perf_counter_ns()
        if request.op == "insert":
            applied = self._write_target.insert_edge(request.u, request.v)
        else:
            applied = self._write_target.delete_edge(request.u, request.v)
        cache = self.row_cache
        if cache is not None and applied:
            cache.invalidate([request.u])
        # a compaction rewrites every row's backing segment; contents
        # are bit-exact, so resident cached rows stay valid
        self._write_target.maybe_compact()
        service_ns = time.perf_counter_ns() - t0
        request.dispatch_ns = now
        request.complete_ns = max(float(now), float(self._clock()))
        if wsid is not None:
            self.tracer.annotate(wsid, applied=bool(applied))
            self.tracer.end(wsid, request.complete_ns)
            self._end_root(request.ticket, request.complete_ns)
        slot._resolve(DONE, applied)
        # writes live in their own counters (writes / write_noops /
        # write percentiles) — the read-side completed/batch metrics
        # keep describing only coalesced query traffic
        self.metrics.record_write(service_ns, applied)
        return slot

    # -- batch dispatch -------------------------------------------------
    def _dispatch(self, batch: MicroBatch) -> None:
        plan = batch.plan
        rows, exists, service_ns = self.run_kernels(
            plan.unique_nodes, plan.unique_edges,
            parent=self._first_root(plan),
            meta={"batch_size": len(batch), "closed_by": batch.closed_by},
        )
        # completion is stamped on the server clock at dispatch (never
        # before the batch's analytic close time): under a manual clock
        # latency is pure queueing/poll-cadence time, under the wall
        # clock it also includes kernel time
        done_ns = max(float(batch.closed_ns), float(self._clock()))
        self.metrics.record_batch(
            len(batch), batch.closed_by, plan.duplicates, service_ns
        )
        self._complete(plan.neighbor_requests, plan.node_lane, rows,
                       batch.closed_ns, done_ns)
        self._complete(plan.edge_requests, plan.edge_lane, exists,
                       batch.closed_ns, done_ns)

    def run_kernels(self, nodes, edges, *, parent: int | None = None,
                    meta: dict | None = None):
        """The kernel step: distinct *nodes* and distinct ``(u, v)``
        *edges* through the Algorithm 6/7 batch kernels, once.

        Returns ``(rows, exists, service_ns)``: ``rows[i]`` the row of
        ``nodes[i]``, ``exists[i]`` whether ``edges[i]`` is present, and
        the kernels' wall nanoseconds.  A traced caller passes the span
        to hang the step off as *parent* (a batch's first traced root,
        or the router's ``sub`` span around a shard worker): the step
        then runs in a ``dispatch`` span carrying *meta* with a
        ``kernel:*`` span per kernel, and the executor's ``tracer`` slot
        is scoped to it — an always-set slot would make every phase of
        every untraced batch pay for cost accumulation, and, with no
        span open, record it as a root span of its own.
        """
        tracer = self.tracer if parent is not None else NULL_TRACER
        executor = self.engine.executor
        if parent is not None:
            executor.tracer = tracer
        try:
            with tracer.span("dispatch", "serve", parent=parent,
                             meta=meta) as dsid:
                t0 = time.perf_counter_ns()
                fetched = None
                if nodes.shape[0]:
                    with tracer.span("kernel:neighbors", "query",
                                     meta={"keys": int(nodes.shape[0])}):
                        if edges.shape[0]:
                            # one store read per mixed micro-batch: the
                            # edge lane's distinct sources ride on this
                            # kernel's fetch and come back as rows for
                            # the edge kernel, which then reads nothing
                            rows, fetched = self.engine.neighbors(
                                nodes, prefetch=np.unique(edges[:, 0]))
                        else:
                            rows = self.engine.neighbors(nodes)
                else:
                    rows = []
                if edges.shape[0]:
                    with tracer.span("kernel:edges", "query",
                                     meta={"keys": int(edges.shape[0])}):
                        exists = self.engine.has_edges(
                            edges, method=EDGE_METHOD,
                            rows=fetched).tolist()
                else:
                    exists = []
                service_ns = time.perf_counter_ns() - t0
                tracer.annotate(dsid, service_ns=float(service_ns))
        finally:
            if parent is not None:
                executor.tracer = NULL_TRACER
        return rows, exists, service_ns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphQueryServer(engine={self.engine!r}, "
            f"coalescer={self.coalescer!r}, admission={self.admission!r})"
        )
