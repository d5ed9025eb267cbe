"""The tracer: sampled structured spans with bounded memory.

:class:`Tracer` is the one span factory every layer shares, for serving
and for construction alike.  A serving front door
(:class:`~repro.serve.server.GraphQueryServer` or the cluster
:class:`~repro.cluster.Router`) decides at submit time whether a
request is **sampled** (:meth:`Tracer.sample_root`, every
``sample_every``-th root); everything that happens on behalf of a
sampled request — queue wait, batch dispatch, scatter fan-out, kernel
calls, job slices — is recorded as child spans.  Two propagation
mechanisms stitch the tree together across layers:

* an explicit **span stack** (:meth:`Tracer.span` /
  :meth:`Tracer.under`): code that runs work inline pushes the current
  span, so anything opened deeper — including a shard worker's kernel
  step — parents correctly without threading ids through every
  signature;
* :meth:`Tracer.phase`, called by an executor whose
  :attr:`~repro.parallel.machine.Executor.tracer` slot holds this
  tracer at the end of every parallel / locked / serial phase: inside
  an open span the phase's declared
  :class:`~repro.parallel.cost.Cost` is charged to the innermost span;
  outside any span the phase becomes a root span of its own, which is
  how a construction run reads its per-phase breakdown.

Finished spans land in a bounded ring (``ObsConfig.capacity``); when
it overflows the oldest span is dropped and counted, so tracing can
stay on in a long-lived server without unbounded memory.  Overhead is
opt-in twice over: a disabled config yields the no-op
:data:`NULL_TRACER`, and ``sample_every > 1`` thins the traced share
of traffic (DESIGN.md §13 carries the measured budget).
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from ..parallel.cost import Cost
from ..utils import require
from .span import Span

__all__ = ["ObsConfig", "Tracer", "NullTracer", "NULL_TRACER"]


def _monotonic_ns() -> float:
    """The wall monotonic clock in nanoseconds (production default)."""
    return float(time.monotonic_ns())


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs, validated once.

    ``enabled`` turns span tracing on (the metrics registry is always
    available — it is pull-based and free until snapshotted).
    ``capacity`` bounds the finished-span ring buffer.
    ``sample_every`` traces every N-th root request/job: 1 traces
    everything, 16 keeps roughly 6% of traffic — the overhead knob.
    """

    enabled: bool = True
    capacity: int = 4096
    sample_every: int = 1

    def __post_init__(self):
        require(self.capacity >= 1, "obs capacity must be >= 1")
        require(self.sample_every >= 1, "obs sample_every must be >= 1")


class Tracer:
    """Span factory with sampling, a parent stack, and a bounded ring.

    Parameters
    ----------
    config:
        The :class:`ObsConfig`; defaults to an enabled config with the
        default capacity and full sampling.
    clock:
        Nanosecond clock used when ``begin``/``end`` are not given
        explicit stamps; inject the server's
        :class:`~repro.serve.request.ManualClock` so span times share
        the serve layer's timebase.
    """

    def __init__(self, config: ObsConfig | None = None, *, clock=_monotonic_ns):
        self.config = config or ObsConfig()
        self._clock = clock
        self._ring: deque[Span] = deque()
        self.dropped = 0
        self._open: dict[int, Span] = {}
        self._stack: list[int] = []
        self._next_id = 1
        self._sample_counter = 0
        # cached off the frozen config: sample_root runs once per
        # request on the serve hot path, where even a dataclass
        # attribute lookup is measurable
        self._sample_every = self.config.sample_every

    @property
    def enabled(self) -> bool:
        """Whether this tracer records spans at all."""
        return self.config.enabled

    def sample_root(self) -> bool:
        """Decide (and count) one root: every ``sample_every``-th is traced.

        A submit that already runs under an open span (a shard worker
        inside a router's ``sub`` span) is never a new root and must
        not consume a sample.  Callers gate on :attr:`enabled` first,
        so this skips the config check entirely.
        """
        if self._stack:
            return False
        picked = self._sample_counter % self._sample_every == 0
        self._sample_counter += 1
        return picked

    # -- span lifecycle -------------------------------------------------
    def begin(self, name: str, layer: str, *, ticket: int = -1,
              parent: int | None = None, start_ns: float | None = None,
              meta: dict | None = None) -> int:
        """Open a span; returns its id (close it with :meth:`end`).

        ``parent`` defaults to the innermost span on the stack, so
        cross-step lifecycle spans (request roots, scatter subs) nest
        correctly when opened inside a :meth:`span`/:meth:`under`
        block.
        """
        sid = self._next_id
        self._next_id += 1
        if parent is None and self._stack:
            parent = self._stack[-1]
        # meta is stored by reference — call sites pass fresh dicts, and
        # a defensive copy per span is measurable on the serve hot path
        self._open[sid] = Span(
            span_id=sid, name=name, layer=layer,
            start_ns=float(start_ns if start_ns is not None else self._clock()),
            parent_id=parent, ticket=int(ticket),
            meta=meta if meta is not None else {},
        )
        return sid

    def end(self, span_id: int, end_ns: float | None = None) -> None:
        """Close an open span and move it to the ring (idempotent)."""
        span = self._open.pop(span_id, None)
        if span is None:
            return
        span.end_ns = float(end_ns if end_ns is not None else self._clock())
        self._commit(span)

    def record(self, name: str, layer: str, *, start_ns: float,
               end_ns: float, ticket: int = -1, parent: int | None = None,
               cost: Cost | None = None, meta: dict | None = None) -> int:
        """Record a fully analytic span (known start and end) in one call.

        This is how queue-wait, coalesce windows, and hedge waits are
        traced: their boundaries are clock stamps the serve layer
        already holds, so no open/close bookkeeping is needed.
        """
        sid = self._next_id
        self._next_id += 1
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            span_id=sid, name=name, layer=layer,
            start_ns=float(start_ns), end_ns=float(end_ns),
            parent_id=parent, ticket=int(ticket),
            meta=meta if meta is not None else {},
        )
        if cost is not None:
            span.cost = cost
        self._commit(span)
        return sid

    @contextmanager
    def span(self, name: str, layer: str, *, ticket: int = -1,
             parent: int | None = None, meta: dict | None = None):
        """Open a span for the duration of a ``with`` block.

        The span is pushed on the parent stack, so nested spans and
        executor :meth:`phase` charges attribute to it while the block
        runs.
        """
        sid = self.begin(name, layer, ticket=ticket, parent=parent, meta=meta)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.end(sid)

    @contextmanager
    def under(self, span_id: int | None):
        """Parent everything in the block to an already-open span.

        The cross-layer propagation device: the router opens a ``sub``
        span, then runs the shard worker's whole inner serving path
        ``under`` it, so the worker's dispatch and kernel spans nest
        without the worker knowing about the router.  ``None`` is a
        no-op (traces compose with untraced callers).
        """
        if span_id is None:
            yield
            return
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()

    def current(self) -> int | None:
        """Innermost span id on the stack (``None`` outside any span)."""
        return self._stack[-1] if self._stack else None

    # -- cost attribution -----------------------------------------------
    def phase(self, label: str, kind: str, cost: Cost, start_ns: float,
              end_ns: float, meta: dict) -> None:
        """Executor hook: one finished ``parallel`` / ``locked`` /
        ``serial`` phase.

        Inside an open span the phase's *cost* is charged to the
        innermost span (a kernel's phases bill its ``kernel:*`` span).
        Outside any span the phase becomes a root span of its own:
        layer *kind*, name *label*, the executor's *start_ns* / *end_ns*
        stamps (wall or virtual, as ``meta["clock"]`` says) and *meta*.
        """
        if self._stack:
            self.add_cost(self._stack[-1], cost)
        else:
            self.record(label or "phase", kind, start_ns=start_ns,
                        end_ns=end_ns, cost=cost, meta=meta)

    def add_cost(self, span_id: int, cost: Cost) -> None:
        """Add *cost* to an open span (no-op once the span is closed)."""
        span = self._open.get(span_id)
        if span is not None:
            span.cost = span.cost + cost

    def annotate(self, span_id: int, **meta) -> None:
        """Merge *meta* into an open span (no-op once closed)."""
        span = self._open.get(span_id)
        if span is not None:
            span.meta.update(meta)

    # -- the ring --------------------------------------------------------
    def _commit(self, span: Span) -> None:
        if len(self._ring) >= self.config.capacity:
            self._ring.popleft()
            self.dropped += 1
        self._ring.append(span)

    def spans(self) -> list[Span]:
        """Finished spans, oldest first (a copy; the ring keeps filling)."""
        return list(self._ring)

    def clear(self) -> None:
        """Drop every finished span and reset the dropped counter."""
        self._ring.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(spans={len(self._ring)}, open={len(self._open)}, "
            f"dropped={self.dropped}, sample_every={self.config.sample_every})"
        )


_NULL_SPAN = nullcontext(-1)
_NULL_UNDER = nullcontext()


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op.

    Servers built without an ``obs`` config hold the shared
    :data:`NULL_TRACER` instance, so the serving hot path pays one
    attribute test per request and nothing else.
    """

    config = ObsConfig(enabled=False)
    dropped = 0

    @property
    def enabled(self) -> bool:
        """Always ``False``."""
        return False

    def sample_root(self) -> bool:
        """Never samples."""
        return False

    def begin(self, name, layer, **kwargs) -> int:
        """No-op; returns a sentinel id."""
        return -1

    def end(self, span_id, end_ns=None) -> None:
        """No-op."""

    def record(self, name, layer, **kwargs) -> int:
        """No-op; returns a sentinel id."""
        return -1

    def span(self, name, layer, **kwargs):
        """No-op context manager yielding a sentinel id (one shared
        stateless object: untraced batches open these per kernel call)."""
        return _NULL_SPAN

    def under(self, span_id):
        """No-op context manager."""
        return _NULL_UNDER

    def current(self) -> None:
        """Always ``None``."""
        return None

    def phase(self, label, kind, cost, start_ns, end_ns, meta) -> None:
        """No-op."""

    def add_cost(self, span_id, cost) -> None:
        """No-op."""

    def annotate(self, span_id, **meta) -> None:
        """No-op."""

    def spans(self) -> list:
        """Always empty."""
        return []

    def clear(self) -> None:
        """No-op."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: The shared disabled tracer (stateless — safe to share everywhere).
NULL_TRACER = NullTracer()
