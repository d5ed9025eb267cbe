"""The query server: workload stream → coalescer → batched kernels.

:class:`GraphQueryServer` is the glue the ROADMAP's "heavy traffic"
framing was missing: it accepts *independent* requests one at a time,
lets admission control bound the queue, lets the coalescer turn the
queue into micro-batches, dispatches each batch through a
:class:`~repro.query.engine.QueryEngine` (so any
:class:`~repro.query.stores.GraphStore`, optional
:class:`~repro.query.rowcache.RowCache`, and any
:class:`~repro.parallel.machine.Executor` all plug in unchanged), and
demuxes the kernel outputs back onto each ticket's
:class:`~repro.serve.request.ReplySlot`.

Replies are **bit-exact** to direct per-request ``QueryEngine`` calls:
dispatch runs the very same Algorithm 6/7 batch kernels, and in-batch
dedup only routes several tickets to one kernel lane — it never
changes what the kernel computes (property-tested across stores,
executors, and admission policies in ``tests/serve``).

The server is synchronous and event-driven — ``submit`` and ``pump``
do all the work inline — which keeps results deterministic under the
injectable clock while exercising exactly the queueing structure a
threaded front-end would have.
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

from ..errors import QueryError, ReproError, ValidationError
from ..obs import NULL_TRACER, MetricsRegistry, Tracer, register_server
from ..parallel.machine import Executor
from ..query.capabilities import capabilities
from ..query.edges import Method
from ..query.engine import QueryEngine
from ..query.rowcache import RowCache
from ..utils import require
from .admission import AdmissionController
from .coalescer import MicroBatch, MicroBatchCoalescer
from .metrics import ServeMetrics, ServeSnapshot
from .config import ServerConfig
from .request import (
    DONE,
    REJECTED,
    SHED,
    AnalyticsRequest,
    JobHandle,
    ReadRequest,
    ReplySlot,
    Request,
    WriteRequest,
    default_clock,
)

__all__ = ["GraphQueryServer"]


class GraphQueryServer:
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
        bounds, edge method) — the construction path
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
        self.config = config
        if config.cache_elements and not isinstance(store, RowCache):
            store = RowCache(store, capacity=config.cache_elements)
        self.engine = QueryEngine(store, executor)
        self.edge_method: Method = config.edge_method
        self._clock = clock
        self.coalescer = MicroBatchCoalescer(
            config.max_batch_size, config.max_wait_ns, clock=clock
        )
        self.admission = AdmissionController(config.queue_capacity,
                                             config.policy)
        self.metrics = ServeMetrics()
        self._slots: dict[int, ReplySlot] = {}
        self._jobs: deque[JobHandle] = deque()
        self._next_ticket = 0
        # the write target is the store under any RowCache wrap — a
        # WriteRequest mutates it directly, then invalidates the
        # touched row so no pre-write copy can ever be served
        target = store.store if isinstance(store, RowCache) else store
        self._write_target = (
            target if capabilities(target).supports_writes else None
        )
        if tracer is None:
            tracer = (
                Tracer(config.obs, clock=clock)
                if config.obs is not None and config.obs.enabled
                else NULL_TRACER
            )
        self.tracer = tracer
        # plain-bool mirror of tracer.enabled: submit/_dispatch test it
        # per request, and a property lookup is measurable at 10k qps
        self._obs = tracer.enabled
        self._traced: dict[int, int] = {}
        self._traced_jobs: dict[int, int] = {}
        self.registry = MetricsRegistry()
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

    # -- the request lifecycle ------------------------------------------
    def submit(self, request: Request) -> ReplySlot:
        """Admit one request; returns its reply handle immediately.

        The slot may already be terminal on return: ``rejected`` under
        the reject policy at capacity, or ``done`` when this submit
        closed a batch (by size, by an expired window, or by the
        ``block`` policy draining to make room).
        """
        if isinstance(request, AnalyticsRequest):
            raise ValidationError(
                "analytics requests are long-running jobs — submit them "
                "through submit_job(), not submit()"
            )
        if not isinstance(request, (ReadRequest, WriteRequest)) or (
            type(request) is ReadRequest
        ):
            raise ValidationError(
                f"unsupported request type {type(request).__name__}"
            )
        require(request.ticket < 0, "request was already submitted")
        tracer = self.tracer
        now = self._clock()
        request.ticket = self._next_ticket
        self._next_ticket += 1
        request.enqueue_ns = now
        slot = ReplySlot(request)
        # root sampling: only top-level submits start a trace — a shard
        # worker's inner submits run under the router's sub span
        # (current() is non-None there) and must not consume samples
        if self._obs and tracer.sample_root():
            self._traced[request.ticket] = tracer.begin(
                "request", "serve", ticket=request.ticket, start_ns=now,
                meta={"kind": type(request).__name__},
            )
        if isinstance(request, WriteRequest):
            return self._apply_write(request, slot, now)
        depth = self.coalescer.pending  # read once, then tracked
        decision = self.admission.decide(depth)
        if decision == "reject":
            slot._resolve(REJECTED)
            self._end_root(request.ticket, now, status="rejected")
            return slot
        if decision == "shed":
            victim = self.coalescer.evict_oldest()
            depth -= 1
            self._slots.pop(victim.ticket)._resolve(SHED)
            self._end_root(victim.ticket, now, status="shed")
        elif decision == "block":
            # backpressure: serve a batch now so the queue has room
            batch = self.coalescer.close_batch(now, "flush")
            if batch is not None:
                depth -= len(batch)
                self._dispatch(batch)
        self._slots[request.ticket] = slot
        self.coalescer.offer(request)
        self.admission.record_admitted(depth + 1)
        self.metrics.record_depth(depth + 1)
        self.pump(now)
        return slot

    def _apply_write(self, request: WriteRequest, slot: ReplySlot,
                     now: float) -> ReplySlot:
        """Apply one edge mutation inline, bypassing the coalescer.

        Writes need no batching (each is one memtable upsert) and must
        be visible to every later read, so they execute at submit time:
        mutate the write target, invalidate the touched row in the
        cache, and run the watermark compaction check.  The slot
        resolves DONE with the applied/no-op bool immediately.
        """
        if self._write_target is None:
            raise ValidationError(
                "store does not support writes (serve writes need a "
                "write-capable store such as the lsm kind)"
            )
        if request.op not in ("insert", "delete"):
            raise ValidationError(
                f"unknown write op {request.op!r} (known: insert, delete)"
            )
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
        compact = getattr(self._write_target, "maybe_compact", None)
        if callable(compact) and compact():
            # compaction rewrote every row's backing segment; contents
            # are bit-exact, so resident cached rows stay valid
            pass
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

    # -- analytics jobs -------------------------------------------------
    def submit_job(self, request: AnalyticsRequest) -> JobHandle:
        """Admit one analytics job; returns its handle immediately.

        The job's :class:`~repro.algorithms.base.AlgorithmStepper` is
        built against the raw store (under any cache wrap) on the
        server's own executor, then queued FIFO: every :meth:`pump`
        grants the front job ``config.job_slice_steps`` bounded work
        slices after serving point traffic, so analytics progress
        rides along with live queries instead of monopolising the
        engine.  Unknown algorithm names and bad parameters raise
        here, at submit time.
        """
        from ..algorithms import make_stepper

        if not isinstance(request, AnalyticsRequest):
            raise ValidationError(
                f"submit_job takes an AnalyticsRequest, got "
                f"{type(request).__name__}"
            )
        require(request.ticket < 0, "request was already submitted")
        target = self.engine.store
        if isinstance(target, RowCache):
            target = target.store
        stepper = make_stepper(
            request.algorithm, target, self.engine.executor,
            **dict(request.params),
        )
        now = self._clock()
        request.ticket = self._next_ticket
        self._next_ticket += 1
        request.enqueue_ns = now
        request.dispatch_ns = now
        tracer = self.tracer
        if self._obs and tracer.sample_root():
            self._traced_jobs[request.ticket] = tracer.begin(
                "job", "algorithms", ticket=request.ticket, start_ns=now,
                meta={"algorithm": request.algorithm},
            )
        self._jobs.append(JobHandle(request, stepper))
        return self._jobs[-1]

    @property
    def active_jobs(self) -> int:
        """Analytics jobs queued or running (FIFO; the front one gets
        the pump slices)."""
        return len(self._jobs)

    def _pump_jobs(self) -> int:
        """Grant the front job one slice allowance; returns jobs that
        reached a terminal state (0 or 1)."""
        if not self._jobs:
            return 0
        handle = self._jobs[0]
        if self._advance_job(handle):
            self._jobs.popleft()
            self._finish_job(handle)
            return 1
        return 0

    def _advance_job(self, handle: JobHandle) -> bool:
        """Grant one slice allowance inside a ``job-slice`` span (when
        the job is traced); returns whether the job finished."""
        jsid = self._traced_jobs.get(handle.request.ticket)
        if jsid is None:
            return handle._advance(self.config.job_slice_steps)
        # job steppers run on the engine executor too: scope the cost
        # observer to the traced slice, mirroring _dispatch
        executor = self.engine.executor
        executor.cost_observer = self.tracer.on_cost
        try:
            with self.tracer.span("job-slice", "algorithms",
                                  ticket=handle.request.ticket, parent=jsid):
                return handle._advance(self.config.job_slice_steps)
        finally:
            executor.cost_observer = None

    def _finish_job(self, handle: JobHandle) -> None:
        """Stamp completion and close the job's root span (if traced)."""
        handle.request.complete_ns = float(self._clock())
        jsid = self._traced_jobs.pop(handle.request.ticket, None)
        if jsid is not None:
            self.tracer.end(jsid, handle.request.complete_ns)

    def pump(self, now: float | None = None) -> int:
        """Dispatch every batch the coalescer considers closed at
        *now* (size reached, or wait window expired), then grant the
        front analytics job its work slices; returns the number of
        batches served.  Call between arrivals when driving the server
        from a schedule."""
        served = 0
        while (batch := self.coalescer.poll(now)) is not None:
            self._dispatch(batch)
            served += 1
        self._pump_jobs()
        return served

    def next_wakeup_ns(self) -> float | None:
        """Earliest clock time at which :meth:`pump` would have work —
        the oldest queued request's window expiry (``None`` when the
        queue is empty).  Virtual-time drivers (the closed-loop load
        harness, the cluster router) advance their clock here instead
        of polling."""
        return self.coalescer.next_close_ns

    def drain(self) -> int:
        """Flush and serve everything still queued, then run every
        analytics job to completion (shutdown path); returns the
        number of batches served.  Afterwards every accepted ticket's
        slot and every job handle is terminal."""
        served = 0
        for batch in self.coalescer.flush(self._clock()):
            self._dispatch(batch)
            served += 1
        while self._jobs:
            handle = self._jobs[0]
            while not self._advance_job(handle):
                pass
            self._jobs.popleft()
            self._finish_job(handle)
        return served

    # -- batch dispatch -------------------------------------------------
    def _dispatch(self, batch: MicroBatch) -> None:
        plan = batch.plan
        tracer = self.tracer
        parent = None
        if self._obs:
            # the dispatch span hangs off the first traced root in the
            # batch; per-request enqueue spans are recorded at
            # _complete, so this scan stops at the first hit instead of
            # walking the whole batch
            traced = self._traced
            for lane in (plan.neighbor_requests, plan.edge_requests):
                for req in lane:
                    root = traced.get(req.ticket)
                    if root is not None:
                        parent = root
                        break
                if parent is not None:
                    break
            if parent is None:
                # inner worker path: dispatch nests under the router's
                # sub span pushed around worker.serve
                parent = tracer.current()
        if parent is not None:
            # kernel phases report their declared Cost to the innermost
            # open span; the observer is scoped to traced batches — an
            # always-installed hook fires on every phase of every
            # untraced batch just to throw the cost away
            executor = self.engine.executor
            executor.cost_observer = tracer.on_cost
            try:
                with tracer.span("dispatch", "serve", parent=parent,
                                 meta={"batch_size": len(batch),
                                       "closed_by": batch.closed_by}) as dsid:
                    rows, exists, service_ns = self._run_kernels(plan, tracer)
                    tracer.annotate(dsid, service_ns=float(service_ns))
            finally:
                executor.cost_observer = None
        else:
            rows, exists, service_ns = self._run_kernels(plan, NULL_TRACER)
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

    def _run_kernels(self, plan, tracer):
        """Run the batch's neighbor/edge kernels inside kernel spans.

        *tracer* is the live tracer for traced batches (each kernel
        span sits innermost on the stack, so the executor's cost
        observer charges the kernel's declared Cost to it) and the
        null tracer for untraced ones.
        """
        t0 = time.perf_counter_ns()
        nodes, edges = plan.unique_nodes, plan.unique_edges
        fetched = None
        if nodes.shape[0]:
            with tracer.span("kernel:neighbors", "query",
                             meta={"keys": int(nodes.shape[0])}):
                if edges.shape[0]:
                    # one store read per mixed micro-batch: the edge
                    # lane's distinct sources ride on this kernel's
                    # fetch and come back as rows for the edge kernel,
                    # which then reads nothing
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
                    edges, method=self.edge_method, rows=fetched).tolist()
        else:
            exists = []
        return rows, exists, time.perf_counter_ns() - t0

    def _complete(self, requests, lanes, values, dispatch_ns: float,
                  complete_ns: float) -> None:
        """Resolve one lane of a batch: request *i* gets ``values[lanes[i]]``."""
        take = self._slots.pop
        enqueued = []
        for req, lane in zip(requests, lanes):
            req.dispatch_ns = dispatch_ns
            req.complete_ns = complete_ns
            slot = take(req.ticket, None)
            if slot is None:  # pragma: no cover - would be a demux bug
                raise QueryError(f"no reply slot for ticket {req.ticket}")
            slot._resolve(DONE, values[lane])
            enqueued.append(req.enqueue_ns)
        if self._traced:
            for req in requests:
                sid = self._traced.pop(req.ticket, None)
                if sid is not None:
                    # queue wait is analytic: submit stamp -> batch close
                    self.tracer.record(
                        "enqueue", "serve", ticket=req.ticket,
                        start_ns=float(req.enqueue_ns),
                        end_ns=dispatch_ns, parent=sid,
                    )
                    self.tracer.end(sid, complete_ns)
        self.metrics.record_replies(enqueued, dispatch_ns, complete_ns)

    def _end_root(self, ticket: int, end_ns: float,
                  status: str | None = None) -> None:
        """Close a traced request's root span (no-op for untraced)."""
        sid = self._traced.pop(ticket, None)
        if sid is not None:
            if status is not None:
                self.tracer.annotate(sid, status=status)
            self.tracer.end(sid, end_ns)

    # -- observability --------------------------------------------------
    def snapshot(self, *, elapsed_s: float | None = None) -> ServeSnapshot:
        """Current serve metrics merged with the admission counters
        (and the write target's LSM stats, when one is wired)."""
        stats_fn = getattr(self._write_target, "stats", None)
        return self.metrics.snapshot(
            self.admission.stats(),
            elapsed_s=elapsed_s,
            lsm=stats_fn() if callable(stats_fn) else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GraphQueryServer(engine={self.engine!r}, "
            f"coalescer={self.coalescer!r}, admission={self.admission!r})"
        )
