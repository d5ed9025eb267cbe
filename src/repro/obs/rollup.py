"""Cost-attribution rollups: span trees -> flamegraph-style aggregates.

A trace answers "what happened to this request"; a rollup answers
"where does the time/cost go overall".  Given the flat span list a
:class:`~repro.obs.Tracer` accumulates, these helpers rebuild the
parent tree, aggregate by ``(layer, name)`` phase
(:func:`rollup_spans` — decode vs gather vs page-touch vs queue-wait
vs hedge-wait, in cost-model nanoseconds), sum whole subtrees
(:func:`subtree_cost` — the check that a request's children account
for everything it was charged), and emit folded flamegraph stacks
(:func:`flamegraph_folded`) that standard flamegraph tooling can
render.  Table renderers live in :mod:`repro.analysis.obs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..parallel.cost import Cost, CostModel, DEFAULT_COST_MODEL
from .span import Span

__all__ = [
    "RollupRow",
    "rollup_spans",
    "children_index",
    "subtree_spans",
    "subtree_cost",
    "flamegraph_folded",
]


@dataclass(frozen=True)
class RollupRow:
    """Aggregate of every span sharing one ``(layer, name)`` phase."""

    layer: str
    name: str
    spans: int
    wall_ns: float
    cost: Cost
    cost_ns: float

    @property
    def key(self) -> str:
        """The phase label rendered as ``layer:name``."""
        return f"{self.layer}:{self.name}"


def rollup_spans(spans, *, cost_model: CostModel = DEFAULT_COST_MODEL
                 ) -> list[RollupRow]:
    """Aggregate spans by ``(layer, name)``, heaviest cost first.

    ``wall_ns`` sums span durations on the tracer's clock (virtual
    time under a manual clock); ``cost_ns`` prices each phase's summed
    :class:`~repro.parallel.cost.Cost` through *cost_model* — the
    attribution that stays meaningful even when wall durations are
    zero-width virtual stamps.
    """
    acc: dict[tuple[str, str], list] = {}
    for span in spans:
        row = acc.setdefault((span.layer, span.name), [0, 0.0, Cost.zero()])
        row[0] += 1
        row[1] += span.duration_ns
        row[2] = row[2] + span.cost
    rows = [
        RollupRow(layer=layer, name=name, spans=n, wall_ns=wall,
                  cost=cost, cost_ns=cost_model.time_ns(cost))
        for (layer, name), (n, wall, cost) in acc.items()
    ]
    rows.sort(key=lambda r: (-r.cost_ns, -r.wall_ns, r.key))
    return rows


def children_index(spans) -> dict[int | None, list[Span]]:
    """Parent id -> children (roots under ``None``), in span-id order."""
    index: dict[int | None, list[Span]] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        index.setdefault(span.parent_id, []).append(span)
    return index


def subtree_spans(spans, root_id: int) -> list[Span]:
    """The root span and every descendant, depth-first."""
    by_id = {s.span_id: s for s in spans}
    index = children_index(spans)
    out: list[Span] = []
    stack = [root_id]
    while stack:
        sid = stack.pop()
        span = by_id.get(sid)
        if span is not None:
            out.append(span)
        stack.extend(c.span_id for c in reversed(index.get(sid, [])))
    return out


def subtree_cost(spans, root_id: int) -> Cost:
    """Total :class:`Cost` charged anywhere in a span's subtree.

    Because kernels charge only leaf spans, this is "everything this
    request paid for" — the quantity the acceptance test compares
    against a direct engine run of the same keys.
    """
    total = Cost.zero()
    for span in subtree_spans(spans, root_id):
        total = total + span.cost
    return total


def flamegraph_folded(spans, *, cost_model: CostModel = DEFAULT_COST_MODEL
                      ) -> list[str]:
    """Folded flamegraph stacks: ``root;child;leaf <cost_ns>`` lines.

    One line per distinct stack, in order of the stack's first span:
    path built from span names root-down, value the summed **own** cost
    of every span with that path, priced through *cost_model* (rounded
    to integer ns; flamegraph tools sum the self-values up the stacks
    themselves).  Zero-cost spans emit nothing.
    """
    by_id = {s.span_id: s for s in spans}
    stacks: dict[str, float] = {}
    for span in sorted(spans, key=lambda s: s.span_id):
        ns = cost_model.time_ns(span.cost)
        if ns <= 0:
            continue
        path = [span.name]
        seen = {span.span_id}
        parent = span.parent_id
        while parent is not None and parent in by_id and parent not in seen:
            seen.add(parent)
            path.append(by_id[parent].name)
            parent = by_id[parent].parent_id
        stack = ";".join(reversed(path))
        stacks[stack] = stacks.get(stack, 0.0) + ns
    return [f"{stack} {int(round(ns))}" for stack, ns in stacks.items()]
