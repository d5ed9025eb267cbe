"""The scatter-gather `Router`: one serving front door over N workers.

The router is a :class:`~repro.serve.loop.ServeLoop`: ``submit`` /
``submit_job`` / ``pump`` / ``drain`` / ``snapshot`` are the very
methods a monolithic :class:`~repro.serve.server.GraphQueryServer`
runs, so workloads, the replay driver, and the load harness drive
either.  What the router adds is what happens to a closed
micro-batch — it is **scattered**: each lane kind of its deduplicated
key plan is cut into per-shard sub-batches at the runs of one stable
sort by owning shard, and each sub-batch is dispatched to the
least-loaded alive replica of its shard.  As a sub completes, its
replies are **gathered** by the loop's own lane-wise ``_complete``,
the reply path of the monolith too.

Time is virtual: the router runs on a
:class:`~repro.serve.request.ManualClock` and keeps a min-heap of
future events, so replica queueing, hedging deadlines, and failure
races are deterministic — the same discrete-event style as the
:class:`~repro.parallel.SimulatedMachine` underneath each worker.
Three mechanisms ride on the event loop:

* **Hedging** — once enough service-time samples exist, a sub whose
  primary completion would land past the configured percentile
  deadline gets a second attempt on a sibling replica at the
  deadline; the first completion wins and the loser is dropped and
  counted (``duplicate_completions``), never double-resolving a slot.
* **Retry on failure** — a completion from a worker that failed
  before it landed is lost; the sub is re-dispatched on another alive
  replica (``retries``).  When no alive replica remains, every ticket
  of the sub fails with a one-line
  :class:`~repro.errors.ClusterError` naming shard, last worker, and
  attempt count — slots never hang.
* **Tenant quotas** — before fan-out, a request whose tenant already
  has its quota of in-flight requests is rejected at admission
  (``quota_rejected``), keyed off ``request.tenant``
  (:class:`TenantLedger`).

Cluster serving is read-only: the router sets no write target, so
``submit`` refuses a :class:`~repro.serve.request.WriteRequest`.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..errors import ClusterError, ValidationError
from ..obs import NULL_TRACER, register_server
from ..serve.coalescer import MicroBatch
from ..serve.config import ServerConfig
from ..serve.loop import ServeLoop
from ..serve.request import ManualClock
from ..shard.store import ShardedStore
from .worker import ShardWorker

__all__ = ["Router", "ClusterStats", "WorkerStats"]

#: Event kinds on the router's virtual-time heap.
_COMPLETE = "complete"
_HEDGE = "hedge"


@dataclass(frozen=True)
class WorkerStats:
    """One worker's share of the cluster's serving work."""

    worker_id: int
    shard_id: int
    alive: bool
    subs_served: int
    requests_served: int
    busy_ns: float
    hedge_wins: int


@dataclass(frozen=True)
class ClusterStats:
    """Router-level accounting the flat serve snapshot can't carry.

    ``per_worker`` / ``per_shard`` show where the scattered work
    landed; the hedging and failure counters quantify the tail
    mechanisms (every duplicate completion was dropped — gathered
    replies stay exactly-once by construction).
    """

    shards: int
    replicas: int
    per_worker: tuple[WorkerStats, ...] = ()
    per_shard: dict[int, int] = field(default_factory=dict)
    per_tenant: dict[str, int] = field(default_factory=dict)
    subs_dispatched: int = 0
    hedges_launched: int = 0
    duplicate_completions: int = 0
    retries: int = 0
    failed_requests: int = 0
    quota_rejected: int = 0


class TenantLedger:
    """Per-tenant in-flight counts against quotas, and completions.

    The front door calls :meth:`enter` before admitting a request and
    :meth:`leave` when it is shed, refused by the queue, failed, or
    completed by ``ServeLoop._complete`` (the one ``completed=True``
    call); tenants without a quota are only counted.
    """

    def __init__(self, quotas):
        self.quotas = dict(quotas)
        self.inflight: dict[str, int] = {}
        self.completed: dict[str, int] = {}
        self.rejected = 0

    def enter(self, tenant: str) -> bool:
        """Count one more request of *tenant* in flight; ``False`` (and
        nothing counted but the rejection) when its quota is used up."""
        held = self.inflight.get(tenant, 0)
        quota = self.quotas.get(tenant)
        if quota is not None and held >= quota:
            self.rejected += 1
            return False
        self.inflight[tenant] = held + 1
        return True

    def leave(self, tenant: str, *, completed: bool = False) -> None:
        """One request of *tenant* left the system (*completed*: with its
        reply, so it counts in ``per_tenant``)."""
        left = self.inflight.get(tenant, 0) - 1
        if left > 0:
            self.inflight[tenant] = left
        else:
            self.inflight.pop(tenant, None)
        if completed:
            self.completed[tenant] = self.completed.get(tenant, 0) + 1


class _Gather:
    """One scattered batch: how many of its subs are still out."""

    __slots__ = ("batch", "remaining", "service_ns", "span")

    def __init__(self, batch, remaining):
        self.batch = batch
        self.remaining = remaining
        self.service_ns = 0.0
        self.span = None            # open dispatch span id (traced batches)


class _Sub:
    """One shard's slice of a scattered batch (router-internal)."""

    __slots__ = ("shard", "gather", "nodes", "node_requests", "node_lanes",
                 "edges", "edge_requests", "edge_lanes", "done", "inflight",
                 "dispatched_to")

    def __init__(self, shard, gather, node_part, edge_part):
        self.shard = shard
        self.gather = gather
        self.nodes, self.node_requests, self.node_lanes = node_part
        self.edges, self.edge_requests, self.edge_lanes = edge_part
        self.done = False
        self.inflight = 0           # outstanding attempts (primary + hedge)
        self.dispatched_to: list[int] = []  # one worker id per attempt


class Router(ServeLoop):
    """Scatter-gather front-end over replicated shard workers.

    Built by :func:`~repro.cluster.build.build_cluster` (via
    :func:`~repro.serve.config.open_server`); not usually constructed
    by hand.  *workers* is the flat worker list (workers of shard
    ``s`` are those with ``shard_id == s``), *partitioner* routes node
    keys to shards, and *clock* is the shared
    :class:`~repro.serve.request.ManualClock` all virtual time runs
    on.  *tracer* is the cluster's shared :class:`~repro.obs.Tracer`
    (also held by every worker's server, so router-side scatter
    spans and worker-side kernel spans land in one tree); defaults to
    the no-op :data:`~repro.obs.NULL_TRACER`.
    """

    _layer = "router"
    _read_only = (
        "cluster serving is read-only (route writes to a "
        "single-worker server over an lsm store)"
    )

    def __init__(
        self,
        workers: list[ShardWorker],
        partitioner,
        config: ServerConfig,
        *,
        clock: ManualClock,
        tracer=None,
    ):
        if not workers:
            raise ValidationError("a cluster needs at least one worker")
        super().__init__(config, clock=clock,
                         tracer=tracer if tracer is not None else NULL_TRACER)
        self.workers = list(workers)
        self.partitioner = partitioner
        self.num_shards = int(partitioner.num_shards)
        self._cuts = np.arange(self.num_shards + 1)  # run boundaries, by id
        self.by_shard: dict[int, list[ShardWorker]] = {
            s: [w for w in self.workers if w.shard_id == s]
            for s in range(self.num_shards)
        }
        for s, group in self.by_shard.items():
            if not group:
                raise ValidationError(f"shard {s} has no replica workers")
        self._tenants = TenantLedger(config.tenant_quotas)
        self._job_view = None
        self._events: list = []     # (time_ns, seq, kind, payload)
        self._seq = 0
        self._samples: deque[float] = deque(maxlen=256)
        # counters surfaced via cluster_stats()
        self.subs_dispatched = 0
        self.hedges_launched = 0
        self.duplicate_completions = 0
        self.retries = 0
        self.failed_requests = 0
        self._per_shard_subs = dict.fromkeys(range(self.num_shards), 0)
        register_server(self.registry, self, prefix="router")

    # -- analytics jobs --------------------------------------------------
    def _job_target(self):
        """Jobs run over the whole routed graph on ``config.executor``:
        a read-only :class:`~repro.shard.ShardedStore` view over replica
        0 of every shard (the union of the shards *is* the graph, so
        results equal the same job on a monolithic server), built once
        and reused by every job."""
        if self._job_view is None:
            self._job_view = ShardedStore(self.partitioner, [
                self.by_shard[s][0].server._job_target()[0]
                for s in range(self.num_shards)
            ])
        return self._job_view, self.config.executor

    # -- scatter ---------------------------------------------------------
    def _dispatch(self, batch: MicroBatch) -> None:
        """Scatter one closed batch: a sub-batch per owning shard, each
        dispatched to a replica; replies gather as completions land."""
        plan = batch.plan
        t = batch.closed_ns
        parts = zip(self._cut(plan.unique_nodes, plan.neighbor_requests,
                              plan.node_lane),
                    self._cut(plan.unique_edges, plan.edge_requests,
                              plan.edge_lane))
        # a sub per shard owning a key of either kind (it has a request)
        owned = [(s, nodes, edges) for s, (nodes, edges) in enumerate(parts)
                 if nodes[1] or edges[1]]
        gather = _Gather(batch, len(owned))
        root = self._first_root(plan)
        if root is not None:
            # stays open until the last sub gathers (_finish_sub)
            gather.span = self.tracer.begin(
                "dispatch", "router", parent=root, start_ns=t,
                meta={"batch_size": len(batch), "closed_by": batch.closed_by,
                      "shards": len(owned)},
            )
        for s, nodes, edges in owned:
            sub = _Sub(s, gather, nodes, edges)
            if not self._dispatch_sub(sub, t):
                # every replica of this shard is already down: fail the
                # sub's tickets now rather than leaving slots pending
                self._fail_sub(sub, None, t)

    def _cut(self, keys: np.ndarray, requests, lanes) -> list:
        """One lane kind of a batch plan cut by owning shard: per shard,
        ``(keys, requests, lanes)`` — its keys in plan order, its requests
        by lane then batch order, and their lanes into those keys."""
        if not requests:  # a batch without this kind: no shard owns any
            return [(keys, (), ())] * self.num_shards
        owners = self.partitioner.shard_of_array(
            keys if keys.ndim == 1 else keys[:, 0])
        lanes = np.asarray(lanes, dtype=np.intp)
        by = owners[lanes]
        # one stable argsort each, cut at the shard runs; the fused key
        # orders a shard's requests by lane, then batch order
        key_order = np.argsort(owners, kind="stable")
        key_cut = np.searchsorted(owners[key_order], self._cuts).tolist()
        req_order = np.argsort(by * len(owners) + lanes, kind="stable")
        req_cut = np.searchsorted(by[req_order], self._cuts).tolist()
        req_lanes = lanes[req_order]
        requests = [requests[i] for i in req_order.tolist()]
        parts = [(keys[:0], (), ())] * self.num_shards
        for s in range(self.num_shards):
            k = key_order[key_cut[s]:key_cut[s + 1]]
            if k.shape[0]:
                r = slice(req_cut[s], req_cut[s + 1])
                parts[s] = (keys[k], requests[r],
                            np.searchsorted(k, req_lanes[r]).tolist())
        return parts

    # -- replica selection / dispatch ------------------------------------
    def _dispatch_sub(self, sub: _Sub, t: float, *, hedge: bool = False
                      ) -> bool:
        """Dispatch one attempt of *sub* at virtual time *t*; returns
        False when no alive replica remains (the caller fails the sub
        unless another attempt is still in flight)."""
        candidates = [w for w in self.by_shard[sub.shard]
                      if w.alive_at(t) and w.worker_id not in sub.dispatched_to]
        if not candidates:
            return False
        worker = min(candidates,
                     key=lambda w: (w.busy_until, w.worker_id))
        sub_sid = None
        if sub.gather.span is not None:
            sub_sid = self.tracer.begin(
                "sub", "router", parent=sub.gather.span, start_ns=t,
                meta={"shard": sub.shard, "worker": worker.worker_id,
                      "hedge": hedge, "attempt": len(sub.dispatched_to) + 1},
            )
        # the worker's dispatch/kernel spans nest under the sub span
        # via the stack — no ids threaded through worker.serve
        with self.tracer.under(sub_sid):
            rows, exists, service_ns = worker.serve(
                sub.nodes, sub.edges, wall=self.config.service == "wall"
            )
        start = max(t, worker.busy_until)
        done_at = start + service_ns
        worker.busy_until = done_at
        if sub_sid is not None:
            self.tracer.annotate(sub_sid, service_ns=float(service_ns))
            self.tracer.end(sub_sid, done_at)
        sub.inflight += 1
        sub.dispatched_to.append(worker.worker_id)
        self.subs_dispatched += 1
        self._per_shard_subs[sub.shard] += 1
        self._push(done_at, _COMPLETE,
                   (sub, worker, rows, exists, service_ns, hedge))
        if not hedge:
            deadline = self._hedge_deadline(t)
            if deadline is not None and done_at > deadline:
                self._push(deadline, _HEDGE, sub)
        return True

    def _hedge_deadline(self, t: float) -> float | None:
        pct = self.config.hedge_percentile
        if pct is None or len(self._samples) < self.config.hedge_min_samples:
            return None
        return t + float(np.percentile(np.fromiter(
            self._samples, dtype=np.float64), pct))

    # -- the event loop ---------------------------------------------------
    def _push(self, t: float, kind: str, payload) -> None:
        self._seq += 1
        heapq.heappush(self._events, (float(t), self._seq, kind, payload))

    def _run_events(self, now: float | None) -> None:
        if now is None:
            now = self._clock()
        while self._events and self._events[0][0] <= now:
            t, _, kind, payload = heapq.heappop(self._events)
            if kind == _COMPLETE:
                self._on_complete(t, *payload)
            else:
                self._on_hedge(t, payload)

    def _on_complete(self, t: float, sub: _Sub, worker: ShardWorker,
                     rows, exists, service_ns: float, hedged: bool) -> None:
        sub.inflight -= 1
        if sub.done:
            # a hedge raced the primary (or vice versa); the slot was
            # already resolved by the winner — drop, count, move on
            self.duplicate_completions += 1
            return
        if not worker.alive_at(t):
            # the worker died with this completion in flight: lost.
            # Retry on a sibling replica unless a hedge is still out.
            self.retries += 1
            if not self._dispatch_sub(sub, t) and sub.inflight == 0:
                self._fail_sub(sub, worker, t)
            return
        sub.done = True
        if hedged:
            worker.hedge_wins += 1
        self._samples.append(float(service_ns))
        closed_ns = sub.gather.batch.closed_ns
        self._complete(sub.node_requests, sub.node_lanes, rows, closed_ns, t)
        self._complete(sub.edge_requests, sub.edge_lanes, exists, closed_ns, t)
        self._finish_sub(sub, service_ns, t)

    def _on_hedge(self, t: float, sub: _Sub) -> None:
        if not sub.done and self._dispatch_sub(sub, t, hedge=True):
            self.hedges_launched += 1
            gather = sub.gather
            if gather.span is not None:
                # the wait that triggered the hedge: batch close to the
                # percentile deadline that just fired
                self.tracer.record(
                    "hedge-wait", "router", start_ns=gather.batch.closed_ns,
                    end_ns=t, parent=gather.span,
                    meta={"shard": sub.shard},
                )

    # -- gather -----------------------------------------------------------
    def _finish_sub(self, sub: _Sub, service_ns: float, t: float) -> None:
        """Account one finished (gathered or failed) sub against its
        batch; the batch's metrics record when the last sub lands,
        with the slowest sub as the batch's service time."""
        gather = sub.gather
        gather.remaining -= 1
        gather.service_ns = max(gather.service_ns, float(service_ns))
        if gather.remaining == 0:
            if gather.span is not None:
                self.tracer.end(gather.span, t)
            batch = gather.batch
            self.metrics.record_batch(
                len(batch), batch.closed_by, batch.plan.duplicates,
                gather.service_ns,
            )

    def _fail_sub(self, sub: _Sub, worker: ShardWorker | None,
                  t: float) -> None:
        sub.done = True
        replicas = len(self.by_shard[sub.shard])
        last = (f"last worker {worker.worker_id}" if worker is not None
                else "none reachable")
        error = ClusterError(
            f"shard {sub.shard}: all {replicas} replicas down "
            f"({last}, {len(sub.dispatched_to)} attempts)"
        )
        requests = (*sub.node_requests, *sub.edge_requests)
        for req in requests:
            req.complete_ns = t
            self._slots.pop(req.ticket)._fail(error)
            self._tenants.leave(req.tenant)
        self.failed_requests += len(requests)
        self._close_roots(requests, sub.gather.batch.closed_ns, t,
                          status="failed")
        self._finish_sub(sub, 0.0, t)

    # -- observability ----------------------------------------------------
    def cluster_stats(self) -> ClusterStats:
        """Per-worker / per-shard / per-tenant breakdowns plus the
        hedging, retry, and failure counters."""
        return ClusterStats(
            shards=self.num_shards,
            replicas=len(self.by_shard[0]),
            per_worker=tuple(
                WorkerStats(
                    worker_id=w.worker_id,
                    shard_id=w.shard_id,
                    alive=w.failed_at is None,
                    subs_served=w.subs_served,
                    requests_served=w.requests_served,
                    busy_ns=w.busy_ns,
                    hedge_wins=w.hedge_wins,
                )
                for w in self.workers
            ),
            per_shard=dict(self._per_shard_subs),
            per_tenant=dict(self._tenants.completed),
            subs_dispatched=self.subs_dispatched,
            hedges_launched=self.hedges_launched,
            duplicate_completions=self.duplicate_completions,
            retries=self.retries,
            failed_requests=self.failed_requests,
            quota_rejected=self._tenants.rejected,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Router(shards={self.num_shards}, "
            f"workers={len(self.workers)}, "
            f"hedge={self.config.hedge_percentile})"
        )
