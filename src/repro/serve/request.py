"""Typed request/response envelopes for the serving layer.

A serving request is one independent user query — a neighbourhood
lookup or an edge-existence check — travelling from an open-loop
workload source through admission control and the micro-batch
coalescer into the batched kernels of Section V.  Each request carries
a server-assigned **ticket** (a monotone id) and three lifecycle
timestamps on the server's clock: ``enqueue_ns`` (admitted into the
queue), ``dispatch_ns`` (its batch closed and hit the
:class:`~repro.query.engine.QueryEngine`), and ``complete_ns`` (reply
demuxed).  Latency accounting and the coalescer's wait-window maths
both read these stamps, so the clock is injectable everywhere
(:class:`ManualClock` makes every test deterministic).

Requests form a small hierarchy — :class:`ReadRequest`
(:class:`NeighborsRequest`, :class:`EdgeRequest`) vs
:class:`WriteRequest` — and every request names its **tenant**
(:data:`DEFAULT_TENANT` unless set), so the cluster router's admission
quotas and per-tenant metrics key off the request itself rather than
isinstance probing at every layer; ``Request.kind`` tags the concrete
query type for the same reason.

The caller's handle is a :class:`ReplySlot` — a synchronous
future-like cell resolved exactly once, whether the request completed,
was rejected at the queue boundary, was shed under overload, or failed
inside the cluster (every replica of its shard down).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..errors import AdmissionError, ValidationError
from ..utils import require

__all__ = [
    "Request",
    "ReadRequest",
    "NeighborsRequest",
    "EdgeRequest",
    "WriteRequest",
    "AnalyticsRequest",
    "ReplySlot",
    "JobHandle",
    "ManualClock",
    "DEFAULT_TENANT",
    "PENDING",
    "DONE",
    "REJECTED",
    "SHED",
    "FAILED",
]

#: Terminal and non-terminal reply states (strings, compared by value).
PENDING = "pending"
DONE = "done"
REJECTED = "rejected"
SHED = "shed"
FAILED = "failed"

_TERMINAL = frozenset({DONE, REJECTED, SHED, FAILED})

#: The tenant a request belongs to unless the caller sets one.
DEFAULT_TENANT = "default"


@dataclass(slots=True)
class Request:
    """Base envelope: ticket id, tenant, and lifecycle timestamps.

    ``ticket`` is ``-1`` until the server assigns one at submit time;
    the timestamps stay ``None`` until the corresponding lifecycle
    event stamps them (all on the server's injectable clock).
    ``tenant`` identifies whose traffic this is — the cluster router
    enforces per-tenant admission quotas and breaks metrics down by it.
    ``kind`` is a class-level tag (``"neighbors"`` / ``"edge"`` /
    ``"write"``) so dispatch layers can route without isinstance
    probes.
    """

    kind: ClassVar[str] = "abstract"

    tenant: str = field(default=DEFAULT_TENANT, kw_only=True)
    ticket: int = field(default=-1, init=False)
    enqueue_ns: float | None = field(default=None, init=False)
    dispatch_ns: float | None = field(default=None, init=False)
    complete_ns: float | None = field(default=None, init=False)

    @property
    def wait_ns(self) -> float | None:
        """Time spent queued before its batch closed (None until dispatched)."""
        if self.enqueue_ns is None or self.dispatch_ns is None:
            return None
        return self.dispatch_ns - self.enqueue_ns

    @property
    def latency_ns(self) -> float | None:
        """Enqueue-to-reply latency (None until completed)."""
        if self.enqueue_ns is None or self.complete_ns is None:
            return None
        return self.complete_ns - self.enqueue_ns


@dataclass(slots=True)
class ReadRequest(Request):
    """Base of the read-side hierarchy (coalesceable point queries).

    The router fans these out across shard replicas; writes take the
    separate :class:`WriteRequest` path.  Concrete kinds are
    :class:`NeighborsRequest` and :class:`EdgeRequest`.
    """


@dataclass(slots=True)
class NeighborsRequest(ReadRequest):
    """One Algorithm 6 query: the neighbour row of ``node``."""

    kind: ClassVar[str] = "neighbors"

    node: int = 0

    @property
    def key(self) -> tuple:
        """Coalescing identity — repeated hot nodes dedup to one lane."""
        return ("n", int(self.node))


@dataclass(slots=True)
class EdgeRequest(ReadRequest):
    """One Algorithm 7 query: does the edge ``(u, v)`` exist?"""

    kind: ClassVar[str] = "edge"

    u: int = 0
    v: int = 0

    @property
    def key(self) -> tuple:
        """Coalescing identity — repeated (u, v) pairs dedup to one lane."""
        return ("e", int(self.u), int(self.v))


@dataclass(slots=True)
class WriteRequest(Request):
    """One edge mutation: insert or delete ``(u, v)``.

    Writes never enter the coalescer — the server applies them inline
    at submit time against a write-capable store (see
    :class:`~repro.serve.server.GraphQueryServer`), resolving the slot
    with the applied/no-op bool immediately, so reads submitted after
    a write always observe it.
    """

    kind: ClassVar[str] = "write"

    op: str = "insert"
    u: int = 0
    v: int = 0

    @property
    def key(self) -> tuple:
        """Identity tuple (writes are never coalesced, but every
        request kind shares the keyed surface)."""
        return ("w", self.op, int(self.u), int(self.v))


@dataclass(slots=True)
class AnalyticsRequest(Request):
    """One long-running analytics job: run ``algorithm`` over the
    whole store.

    Unlike point queries, an analytics request is not answered inside
    one dispatch: the server builds an
    :class:`~repro.algorithms.base.AlgorithmStepper` for it and
    interleaves bounded work slices with live point-query batches (see
    :meth:`~repro.serve.server.GraphQueryServer.submit_job`).
    ``params`` are passed through to the algorithm's registry factory
    (``source=`` for bfs, ``damping=`` for pagerank, ...).
    """

    kind: ClassVar[str] = "analytics"

    algorithm: str = ""
    params: dict = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        """Identity tuple (jobs are never coalesced, but every request
        kind shares the keyed surface)."""
        return ("a", self.algorithm)


class _Handle:
    """What a :class:`ReplySlot` and a :class:`JobHandle` share: the
    request, its status, and server-side resolution exactly once."""

    __slots__ = ("request", "status", "_value", "error")
    _noun = "handle"  # named by the double-resolution message

    def __init__(self, request: Request):
        self.request = request
        self.status = PENDING
        self._value = None
        self.error: Exception | None = None

    @property
    def ready(self) -> bool:
        """True once the handle reached any terminal state."""
        return self.status in _TERMINAL

    # -- server-side resolution (exactly once) --------------------------
    def _resolve(self, status: str, value=None) -> None:
        if self.status != PENDING:
            raise ValidationError(
                f"{self._noun} for ticket={self.request.ticket} resolved "
                f"twice ({self.status} -> {status})"
            )
        self.status = status
        self._value = value

    def _fail(self, error: Exception) -> None:
        self._resolve(FAILED)
        self.error = error


class ReplySlot(_Handle):
    """Synchronous future-like handle for one submitted request.

    The server resolves every slot exactly once into one of four
    terminal states: :data:`DONE` (carrying the query result),
    :data:`REJECTED` (refused at the queue boundary), :data:`SHED`
    (admitted, then evicted under overload before dispatch), or
    :data:`FAILED` (the cluster router could not serve it — every
    replica of its shard down — carrying the error).  Reading
    :meth:`result` on a refused slot raises
    :class:`~repro.errors.AdmissionError`; on a failed slot it raises
    the stored error; reading it before resolution raises
    :class:`~repro.errors.ValidationError`.
    """

    __slots__ = ()
    _noun = "reply slot"

    def result(self):
        """The query result (row array or edge bool).

        Raises :class:`~repro.errors.AdmissionError` when the request
        was rejected or shed, the stored :class:`~repro.errors.ReproError`
        when it failed in the cluster, and
        :class:`~repro.errors.ValidationError` while still pending.
        """
        if self.status == DONE:
            return self._value
        if self.status in (REJECTED, SHED):
            raise AdmissionError(
                f"request ticket={self.request.ticket} was {self.status} "
                "by admission control"
            )
        if self.status == FAILED:
            raise self.error
        raise ValidationError(
            f"request ticket={self.request.ticket} has no reply yet"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        shape = (
            f", value.shape={self._value.shape}"
            if isinstance(self._value, np.ndarray)
            else (f", value={self._value!r}" if self.status == DONE else "")
        )
        return f"ReplySlot(ticket={self.request.ticket}, status={self.status}{shape})"


class JobHandle(_Handle):
    """Future-like handle for one submitted analytics job.

    The job-API twin of :class:`ReplySlot`: resolved exactly once into
    :data:`DONE` (carrying the
    :class:`~repro.algorithms.base.AlgorithmResult`) or :data:`FAILED`
    (carrying the error the stepper raised — a failing job never takes
    the serve loop down with it).  Between those it exposes live
    progress: ``slices`` server pump slices granted so far, ``rounds``
    the algorithm's own round counter.
    """

    __slots__ = ("slices", "_stepper")
    _noun = "job handle"

    def __init__(self, request: AnalyticsRequest, stepper):
        super().__init__(request)
        self.slices = 0
        self._stepper = stepper

    @property
    def rounds(self) -> int:
        """Bulk-synchronous rounds the algorithm has completed so far."""
        return self._stepper.rounds

    def result(self):
        """The job's :class:`~repro.algorithms.base.AlgorithmResult`.

        Raises the stored error when the job failed, and
        :class:`~repro.errors.ValidationError` while still running.
        """
        if self.status == DONE:
            return self._value
        if self.status == FAILED:
            raise self.error
        raise ValidationError(
            f"job ticket={self.request.ticket} is still running "
            f"({self.slices} slices, {self.rounds} rounds)"
        )

    def _advance(self, steps: int) -> bool:
        """Grant the job up to *steps* stepper slices; True when the
        handle went terminal (the server pops it from its queue)."""
        if self.ready:
            return True
        self.slices += 1
        try:
            for _ in range(steps):
                if self._stepper.step():
                    self._resolve(DONE, self._stepper.result())
                    return True
        except Exception as exc:  # noqa: BLE001 - jobs must not kill serving
            self._fail(exc)
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"JobHandle(ticket={self.request.ticket}, "
            f"algorithm={self.request.algorithm!r}, status={self.status}, "
            f"slices={self.slices})"
        )


class ManualClock:
    """A hand-advanced monotonic nanosecond clock.

    Injecting one of these wherever the serve layer takes a ``clock``
    callable makes batch-window closure, wait times, and latency
    percentiles fully deterministic — the arrival schedule *is* the
    timebase, independent of host speed.  Calling the instance returns
    the current time, matching :func:`time.monotonic_ns`.
    """

    __slots__ = ("now_ns",)

    def __init__(self, start_ns: float = 0.0):
        self.now_ns = float(start_ns)

    def __call__(self) -> float:
        """Current simulated time in nanoseconds."""
        return self.now_ns

    def advance(self, delta_ns: float) -> float:
        """Move time forward by ``delta_ns`` (must be non-negative)."""
        require(delta_ns >= 0, "clock can only advance forward")
        self.now_ns += float(delta_ns)
        return self.now_ns

    def advance_to(self, t_ns: float) -> float:
        """Move time forward to absolute ``t_ns`` (no-op when in the past)."""
        self.now_ns = max(self.now_ns, float(t_ns))
        return self.now_ns


def default_clock() -> float:
    """The wall monotonic clock in nanoseconds (the production default)."""
    return float(time.monotonic_ns())
