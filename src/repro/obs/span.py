"""The span record — one timed, cost-attributed piece of work.

A :class:`Span` is the unit every layer of the stack reports in: the
serve front door opens one per sampled request, the coalescer's queue
wait and the router's scatter/fan-out become analytic child spans, and
the query kernels underneath attach their declared
:class:`~repro.parallel.cost.Cost` through the executor's ``tracer``
slot (:meth:`~repro.obs.Tracer.phase`), which also makes each phase of
a construction run, where no span is open, a root span of its own.
Spans form a tree via ``parent_id``; the rollup helpers in
:mod:`repro.obs.rollup` aggregate that tree into per-layer/per-phase
attribution tables and flamegraph folded stacks.

Times are nanoseconds on whatever clock the owning
:class:`~repro.obs.Tracer` was given — the wall monotonic clock in
production, a :class:`~repro.serve.request.ManualClock` in virtual-time
serving — so span durations mean the same thing as every other stamp
in the serve layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..parallel.cost import Cost

__all__ = ["Span"]


@dataclass(slots=True)
class Span:
    """One named, timed unit of work with cost attribution.

    ``span_id`` is unique within its tracer; ``parent_id`` is ``None``
    for roots.  ``ticket`` carries the serve-layer request ticket when
    the span belongs to one request (-1 otherwise).  ``cost`` is the
    sum of every :class:`~repro.parallel.cost.Cost` charged while this
    span was the innermost open span — leaf kernel spans carry real
    cost, structural spans usually stay zero and aggregate via the
    rollups.  ``meta`` holds small JSON-safe annotations (shard id,
    batch size, close reason...).
    """

    span_id: int
    name: str
    layer: str
    start_ns: float
    end_ns: float | None = None
    parent_id: int | None = None
    ticket: int = -1
    cost: Cost = field(default_factory=Cost.zero)
    meta: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> float:
        """Span length in nanoseconds (0.0 while still open)."""
        if self.end_ns is None:
            return 0.0
        return float(self.end_ns) - float(self.start_ns)

    def to_dict(self) -> dict:
        """A JSON-safe dict of the span (the CLI ``trace --json`` shape)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "layer": self.layer,
            "ticket": self.ticket,
            "start_ns": float(self.start_ns),
            "end_ns": None if self.end_ns is None else float(self.end_ns),
            "duration_ns": self.duration_ns,
            "cost": {
                "reads": self.cost.reads,
                "writes": self.cost.writes,
                "flops": self.cost.flops,
                "bit_ops": self.cost.bit_ops,
                "copy_bytes": self.cost.copy_bytes,
                "page_touches": self.cost.page_touches,
            },
            "meta": dict(self.meta),
        }
