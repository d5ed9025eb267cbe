"""Query serving: micro-batch coalescing, admission control, metrics.

The subsystem that turns a *stream* of independent user requests into
the batched kernel calls of Section V: typed requests and reply
handles (:mod:`~repro.serve.request`), a size/window micro-batch
coalescer with in-batch hot-key dedup (:mod:`~repro.serve.coalescer`),
bounded-queue admission control (:mod:`~repro.serve.admission`), the
one front door that runs them and the analytics-job lifecycle
(:class:`ServeLoop`, :mod:`~repro.serve.loop`), the
:class:`GraphQueryServer` that dispatches its closed batches through a
:class:`~repro.query.engine.QueryEngine`
(:mod:`~repro.serve.server`), serve-side metrics
(:mod:`~repro.serve.metrics`), seeded open-loop workload generation
(:mod:`~repro.serve.workload`), and the SLO load harness
(:mod:`~repro.serve.loadgen`).

Construction goes through :class:`ServerConfig` + :func:`open_server`
(:mod:`~repro.serve.config`) — the serving twin of
:func:`repro.open_store` — which returns a single
:class:`GraphQueryServer` or, when the config names cluster options,
a replicated scatter-gather :class:`~repro.cluster.Router`.

Long-running analytics ride the same front door: an
:class:`AnalyticsRequest` submitted through
:meth:`ServeLoop.submit_job` (server or router alike) yields a
:class:`JobHandle`, and every ``pump`` interleaves bounded
:mod:`repro.algorithms` stepper slices with live point-query batches —
offline analytics and online serving coexist on one store.
"""

from .admission import POLICIES, AdmissionController, AdmissionStats
from .coalescer import BatchPlan, MicroBatch, MicroBatchCoalescer
from .config import ServerConfig, open_server
from .loadgen import SLO, LoadResult, run_open_loop
from .loop import ServeLoop
from .metrics import ServeMetrics, ServeSnapshot, log2_histogram, quantiles
from .request import (
    DEFAULT_TENANT,
    DONE,
    FAILED,
    PENDING,
    REJECTED,
    SHED,
    AnalyticsRequest,
    EdgeRequest,
    JobHandle,
    ManualClock,
    NeighborsRequest,
    ReadRequest,
    ReplySlot,
    Request,
    WriteRequest,
)
from .server import GraphQueryServer
from .workload import replay, synthetic_workload, zipf_nodes

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "POLICIES",
    "BatchPlan",
    "MicroBatch",
    "MicroBatchCoalescer",
    "ServerConfig",
    "open_server",
    "ServeMetrics",
    "ServeSnapshot",
    "log2_histogram",
    "quantiles",
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
    "ServeLoop",
    "GraphQueryServer",
    "SLO",
    "LoadResult",
    "run_open_loop",
    "synthetic_workload",
    "zipf_nodes",
    "replay",
]
