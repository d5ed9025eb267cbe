"""repro.obs: unified observability for the serving stack.

One span schema, one metrics view, one cost-attribution story across
every layer the repo has grown — the coalescing serve loop, the
admission controller, the cluster router and its shard workers, the
query kernels, the LSM write path, and analytics job slices.

Three pieces:

* :class:`Tracer` produces structured :class:`Span` trees for sampled
  requests and jobs, with kernel :class:`~repro.parallel.cost.Cost`
  attached through the executor's ``tracer`` slot, a bounded
  ring buffer, and a ``sample_every`` overhead knob
  (:class:`ObsConfig`).  Disabled servers share the no-op
  :data:`NULL_TRACER`.
* :class:`MetricsRegistry` holds pull-based **sources** — the
  per-layer stats snapshots, which are the one stats mechanism
  (:func:`register_server` wires a front-end's, :func:`to_jsonable`
  makes them JSON-safe) — and renders one whole-system ``snapshot()``.
* the rollup helpers (:func:`rollup_spans`, :func:`subtree_cost`,
  :func:`flamegraph_folded`) aggregate span trees into per-phase
  attribution: decode vs gather vs queue-wait vs hedge-wait, priced
  through the cost model.

Wire it in with ``ServerConfig(obs=ObsConfig(...))`` (or ``obs=True``)
and read the result with the CLI ``trace`` subcommand or
:mod:`repro.analysis.obs` renderers.  DESIGN.md §13 documents the span
schema and the sampling/overhead policy.
"""

from .registry import MetricsRegistry, register_server, to_jsonable
from .rollup import (
    RollupRow,
    children_index,
    flamegraph_folded,
    rollup_spans,
    subtree_cost,
    subtree_spans,
)
from .span import Span
from .tracer import NULL_TRACER, NullTracer, ObsConfig, Tracer

__all__ = [
    "Span",
    "ObsConfig",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "MetricsRegistry",
    "to_jsonable",
    "register_server",
    "RollupRow",
    "rollup_spans",
    "children_index",
    "subtree_spans",
    "subtree_cost",
    "flamegraph_folded",
]
