"""`ServeLoop` — the one front door of monolithic and cluster serving.

Everything a request meets before its batch closes, and everything an
analytics job meets at all, is the same whether one
:class:`~repro.serve.server.GraphQueryServer` or a scatter-gather
:class:`~repro.cluster.Router` answers it: request validation,
ticketing, root-span sampling, the reject / shed-oldest / block
admission decision, coalescing, the FIFO job lifecycle, and the
``pump`` / ``drain`` skeleton.  That lives here, once.  A front door
subclasses the loop and supplies only what differs:

* ``_dispatch(batch)`` — what happens to a closed micro-batch (run the
  kernels inline, or scatter it across shard workers);
* ``_events``, ``_run_events(now)`` and ``next_wakeup_ns`` — work
  still in flight after ``_dispatch`` returned (none when batches
  complete inline);
* ``_job_target()`` — the ``(store, executor)`` a job stepper runs on;
* ``_write_target`` / ``_apply_write`` — a front door that accepts
  :class:`~repro.serve.request.WriteRequest` sets the mutable store and
  applies the write; one that leaves ``_write_target`` ``None`` is
  read-only, and ``submit`` says so with ``_read_only``;
* ``_tenants`` — a per-tenant ledger (``enter`` / ``leave``) when
  in-flight quotas are enforced.

The loop is synchronous and event-driven — ``submit`` and ``pump`` do
all the work inline — which keeps results deterministic under the
injectable clock while exercising exactly the queueing structure a
threaded front-end would have.
"""

from __future__ import annotations

from collections import deque

from ..errors import ValidationError
from ..obs import NULL_TRACER, MetricsRegistry
from ..utils import require
from .admission import AdmissionController
from .coalescer import MicroBatch, MicroBatchCoalescer
from .config import ServerConfig
from .metrics import ServeMetrics, ServeSnapshot
from .request import (
    REJECTED,
    SHED,
    AnalyticsRequest,
    EdgeRequest,
    JobHandle,
    NeighborsRequest,
    ReadRequest,
    ReplySlot,
    Request,
    WriteRequest,
)

__all__ = ["ServeLoop"]

#: The request types ``submit`` admits without its isinstance chain.
_POINT_READS = (NeighborsRequest, EdgeRequest)


class ServeLoop:
    """Admission, coalescing and the job lifecycle of a serving front
    door; see the module docstring for what a subclass supplies.

    *clock* is the nanosecond monotonic clock of every lifecycle stamp
    (injectable: :class:`~repro.serve.request.ManualClock`); *tracer* a
    :class:`~repro.obs.Tracer` or :data:`~repro.obs.NULL_TRACER`.
    """

    #: layer name of the root spans this front door opens
    _layer = "serve"
    #: why a write is refused while ``_write_target`` is ``None``
    _read_only = "this front door is read-only"
    #: in-flight events: a heap of ``(due_ns, ...)``, empty when inline
    _events = ()

    def __init__(self, config: ServerConfig, *, clock, tracer):
        self.config = config
        self._clock = clock
        self.coalescer = MicroBatchCoalescer(
            config.max_batch_size, config.max_wait_ns, clock=clock
        )
        self._queue = self.coalescer.queue  # its depth gates admission
        self.admission = AdmissionController(config.queue_capacity,
                                             config.policy)
        self.metrics = ServeMetrics()
        self._slots: dict[int, ReplySlot] = {}
        self._jobs: deque[JobHandle] = deque()
        self._next_ticket = 0
        self._write_target = None
        self._tenants = None
        self.tracer = tracer
        # plain-bool mirror of tracer.enabled: submit tests it per
        # request, and a property lookup is measurable at 10k qps
        self._obs = tracer.enabled
        self._traced: dict[int, int] = {}
        self._traced_jobs: dict[int, int] = {}
        self.registry = MetricsRegistry()

    # -- what a front door supplies --------------------------------------
    def _dispatch(self, batch: MicroBatch) -> None:
        """Serve one closed micro-batch."""
        raise NotImplementedError

    def _run_events(self, now: float | None) -> None:
        """Land in-flight work due by *now* (batches that complete
        inside ``_dispatch`` leave none)."""

    def _job_target(self):
        """The ``(store, executor)`` analytics steppers are built on."""
        raise NotImplementedError

    @property
    def num_nodes(self) -> int:
        """Size of the node id space this front door serves."""
        return int(self._job_target()[0].num_nodes)

    # -- the request lifecycle -------------------------------------------
    def submit(self, request: Request) -> ReplySlot:
        """Admit one request; returns its reply handle immediately.

        Tenant quota (where enforced), then queue admission, then
        coalescing.  The slot may already be terminal on return:
        ``rejected`` under a quota or the reject policy at capacity, or
        ``done`` when this submit closed a batch that completed inline
        (by size, by an expired window, or by the ``block`` policy
        draining to make room) or applied a write.
        """
        # an exact point read skips the isinstance chain; writes,
        # subclasses and whatever must be refused go through it
        write = False
        if type(request) not in _POINT_READS or request.ticket >= 0:
            write = self._check_request(request)
        tenants = self._tenants
        now = self._clock()
        request.ticket = ticket = self._next_ticket
        self._next_ticket = ticket + 1
        request.enqueue_ns = now
        slot = ReplySlot(request)
        # root sampling: only top-level submits start a trace — a submit
        # that runs under an open span is never a new root
        if self._obs and self.tracer.sample_root():
            meta = {"kind": type(request).__name__}
            if tenants is not None:
                meta["tenant"] = request.tenant
            self._traced[ticket] = self.tracer.begin(
                "request", self._layer, ticket=ticket, start_ns=now, meta=meta)
        if write:
            return self._apply_write(request, slot, now)
        if tenants is not None and not tenants.enter(request.tenant):
            slot._resolve(REJECTED)
            self._end_root(ticket, now, status="quota-rejected")
            return slot
        admission = self.admission
        depth = len(self._queue)
        if depth >= admission.capacity:  # the policy decides only when full
            decision = admission.decide(depth)
            if decision == "reject":
                if tenants is not None:
                    tenants.leave(request.tenant, completed=False)
                slot._resolve(REJECTED)
                self._end_root(ticket, now, status="rejected")
                return slot
            if decision == "shed":
                victim = self._queue.popleft()
                depth -= 1
                self._slots.pop(victim.ticket)._resolve(SHED)
                if tenants is not None:
                    tenants.leave(victim.tenant)
                self._end_root(victim.ticket, now, status="shed")
            else:
                # block — backpressure: serve a batch now to make room
                batch = self.coalescer.close_batch(now, "flush")
                if batch is not None:
                    depth -= len(batch)
                    self._dispatch(batch)
        self._slots[ticket] = slot
        admission.record_admitted(depth + 1)
        # pump only when it has work at `now`: a batch to close, a job
        # slice to grant, or an in-flight event (router) that is due
        events = self._events
        if (self.coalescer.offer(request, now) or self._jobs
                or (events and events[0][0] <= now)):
            self.pump(now)
        return slot

    def _check_request(self, request) -> bool:
        """Refuse what ``submit`` may not accept with a one-line
        :class:`ValidationError`; returns whether *request* is a write."""
        if isinstance(request, AnalyticsRequest):
            raise ValidationError(
                "analytics requests are long-running jobs — submit them "
                "through submit_job(), not submit()")
        if not isinstance(request, (ReadRequest, WriteRequest)) or (
                type(request) is ReadRequest):
            raise ValidationError(
                f"unsupported request type {type(request).__name__}")
        require(request.ticket < 0, "request was already submitted")
        if not isinstance(request, WriteRequest):
            return False
        if self._write_target is None:
            raise ValidationError(self._read_only)
        if request.op not in ("insert", "delete"):
            raise ValidationError(
                f"unknown write op {request.op!r} (known: insert, delete)")
        return True

    def _end_root(self, ticket: int, end_ns: float,
                  status: str | None = None) -> None:
        """Close a traced request's root span (no-op for untraced)."""
        sid = self._traced.pop(ticket, None)
        if sid is not None:
            if status is not None:
                self.tracer.annotate(sid, status=status)
            self.tracer.end(sid, end_ns)

    # -- analytics jobs --------------------------------------------------
    def submit_job(self, request: AnalyticsRequest) -> JobHandle:
        """Admit one analytics job; returns its handle immediately.

        The job's :class:`~repro.algorithms.base.AlgorithmStepper` is
        built on the front door's job target — the raw store under any
        cache wrap, or a whole-graph view over every shard, so results
        are identical either way — then queued FIFO: every :meth:`pump`
        grants the front job ``config.job_slice_steps`` bounded work
        slices after serving point traffic, so analytics progress rides
        along with live queries instead of monopolising the engine.
        Unknown algorithm names and bad parameters raise here, at
        submit time.
        """
        from ..algorithms import make_stepper

        if not isinstance(request, AnalyticsRequest):
            raise ValidationError(
                f"submit_job takes an AnalyticsRequest, got "
                f"{type(request).__name__}"
            )
        require(request.ticket < 0, "request was already submitted")
        store, executor = self._job_target()
        stepper = make_stepper(request.algorithm, store, executor,
                               **dict(request.params))
        now = self._clock()
        request.ticket = self._next_ticket
        self._next_ticket += 1
        request.enqueue_ns = now
        request.dispatch_ns = now
        if self._obs and self.tracer.sample_root():
            self._traced_jobs[request.ticket] = self.tracer.begin(
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

    def _pump_jobs(self) -> None:
        """Grant the front job one slice allowance."""
        if self._advance_job(self._jobs[0]):
            self._finish_job(self._jobs.popleft())

    def _advance_job(self, handle: JobHandle) -> bool:
        """Grant one slice allowance inside a ``job-slice`` span (when
        the job is traced); returns whether the job finished."""
        jsid = self._traced_jobs.get(handle.request.ticket)
        if jsid is None:
            return handle._advance(self.config.job_slice_steps)
        # scope the executor's tracer slot to the traced slice, on the
        # executor the stepper actually runs on (it may have defaulted
        # its own)
        executor = handle._stepper.executor
        executor.tracer = self.tracer
        try:
            with self.tracer.span("job-slice", "algorithms",
                                  ticket=handle.request.ticket, parent=jsid):
                return handle._advance(self.config.job_slice_steps)
        finally:
            executor.tracer = NULL_TRACER

    def _finish_job(self, handle: JobHandle) -> None:
        """Stamp completion and close the job's root span (if traced)."""
        handle.request.complete_ns = float(self._clock())
        jsid = self._traced_jobs.pop(handle.request.ticket, None)
        if jsid is not None:
            self.tracer.end(jsid, handle.request.complete_ns)

    # -- the loop ----------------------------------------------------------
    def pump(self, now: float | None = None) -> int:
        """Land in-flight work due by *now*, dispatch every batch the
        coalescer considers closed at *now* (size reached, or wait
        window expired), then grant the front analytics job its work
        slices; returns the number of batches dispatched.  Call between
        arrivals when driving the front door from a schedule."""
        self._run_events(now)
        served = 0
        while (batch := self.coalescer.poll(now)) is not None:
            self._dispatch(batch)
            served += 1
            self._run_events(now)
        if self._jobs:
            self._pump_jobs()
        return served

    def next_wakeup_ns(self) -> float | None:
        """Earliest clock time at which :meth:`pump` would have work —
        the oldest queued request's window expiry (``None`` when the
        queue is empty).  Virtual-time drivers (the load harness)
        advance their clock here instead of polling."""
        return self.coalescer.next_close_ns

    def drain(self) -> int:
        """Flush and serve everything still queued, advance the clock
        through every wakeup still outstanding (in-flight cluster work;
        batches that completed inline leave none), then run every
        analytics job to completion (shutdown path); returns the number
        of batches dispatched.  Afterwards every accepted ticket's slot
        and every job handle is terminal."""
        served = 0
        for batch in self.coalescer.flush(self._clock()):
            self._dispatch(batch)
            served += 1
        while (wake := self.next_wakeup_ns()) is not None:
            self._clock.advance_to(wake)
            served += self.pump(wake)
        while self._jobs:
            while not self._advance_job(self._jobs[0]):
                pass
            self._finish_job(self._jobs.popleft())
        return served

    # -- observability -----------------------------------------------------
    def snapshot(self, *, elapsed_s: float | None = None) -> ServeSnapshot:
        """Current serve metrics merged with the admission counters
        (and the write target's LSM stats, when one is wired)."""
        stats_fn = getattr(self._write_target, "stats", None)
        return self.metrics.snapshot(
            self.admission.stats(),
            elapsed_s=elapsed_s,
            lsm=stats_fn() if callable(stats_fn) else None,
        )
