"""Open-loop load generation against a declared SLO.

:func:`run_open_loop` — requests arrive on a Poisson schedule at a
configured *offered* rate whether or not the server keeps up; the
honest way to measure tail latency under load, since a slow server
cannot slow the arrival process down (no coordinated omission).

It is a schedule handed to :func:`~repro.serve.workload.replay`, which
runs it in virtual time on the server's
:class:`~repro.serve.request.ManualClock` — through every arrival and
every scheduled wakeup (:meth:`next_wakeup_ns`), so window closures,
cluster hedging deadlines and replica completions fire exactly when
they should — and works unchanged against a monolithic
:class:`~repro.serve.server.GraphQueryServer` or a
:class:`~repro.cluster.Router`.

Results come back as a :class:`LoadResult` — achieved qps plus
p50/p95/p99 — checked against a declared :class:`SLO`; violations are
named, not just boolean, so a failed gate says *which* bound broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..utils import require
from .request import DONE, FAILED, REJECTED, SHED
from .workload import _replay, synthetic_workload

__all__ = ["SLO", "LoadResult", "run_open_loop"]


@dataclass(frozen=True)
class SLO:
    """A declared service-level objective: latency bounds and a rate floor.

    Any field left ``None`` is unconstrained.  Latency bounds are
    milliseconds of enqueue-to-reply time at the named percentile, and
    a run that completed nothing has no percentile to hold one: each
    declared latency bound is then a violation.  ``min_qps`` floors the
    achieved completion rate.
    """

    p50_ms: float | None = None
    p95_ms: float | None = None
    p99_ms: float | None = None
    min_qps: float | None = None

    def violations(self, result: "LoadResult") -> tuple[str, ...]:
        """Every bound the result breaks, as one-line descriptions."""
        out = []
        for name, bound, got in (
            ("p50", self.p50_ms, result.p50_ms),
            ("p95", self.p95_ms, result.p95_ms),
            ("p99", self.p99_ms, result.p99_ms),
        ):
            if bound is None:
                continue
            if got is None:
                out.append(f"{name} undefined (no completions) vs SLO {bound:.3f} ms")
            elif got > bound:
                out.append(f"{name} {got:.3f} ms > SLO {bound:.3f} ms")
        if (
            self.min_qps is not None
            and result.achieved_qps < self.min_qps
        ):
            out.append(
                f"qps {result.achieved_qps:,.0f} < SLO floor "
                f"{self.min_qps:,.0f}"
            )
        return tuple(out)


@dataclass(frozen=True)
class LoadResult:
    """One load run's outcome: rates, tail latencies, SLO verdict.

    Latency percentiles are over completed requests only, with
    refusals counted separately (``rejected`` / ``shed`` /
    ``failed``) — an SLO over completions plus an explicit drop count
    is the standard serving contract.
    """

    mode: str
    requests: int
    completed: int
    rejected: int
    shed: int
    failed: int
    duration_s: float
    offered_qps: float | None
    achieved_qps: float
    p50_ms: float | None
    p95_ms: float | None
    p99_ms: float | None
    slo: SLO | None = None
    violations: tuple[str, ...] = field(default=())

    @property
    def met(self) -> bool:
        """True when every declared SLO bound held (or none declared)."""
        return not self.violations


def _result(mode, slots, start_ns, end_ns, offered_qps, slo) -> LoadResult:
    statuses = [s.status for s in slots]
    lat = np.array(
        [
            s.request.latency_ns
            for s in slots
            if s.status == DONE and s.request.latency_ns is not None
        ],
        dtype=np.float64,
    )
    # the run ends at the last useful reply: dropped hedge duplicates
    # landing later are abandoned work and shouldn't dilute qps
    done_ns = [
        s.request.complete_ns
        for s in slots
        if s.status == DONE and s.request.complete_ns is not None
    ]
    duration_ns = (max(done_ns) - start_ns) if done_ns else (end_ns - start_ns)
    qs = (
        np.percentile(lat, [50.0, 95.0, 99.0]) / 1e6
        if lat.shape[0]
        else (None, None, None)
    )
    duration_s = max(float(duration_ns), 1.0) / 1e9
    result = LoadResult(
        mode=mode,
        requests=len(slots),
        completed=statuses.count(DONE),
        rejected=statuses.count(REJECTED),
        shed=statuses.count(SHED),
        failed=statuses.count(FAILED),
        duration_s=duration_s,
        offered_qps=offered_qps,
        achieved_qps=statuses.count(DONE) / duration_s,
        p50_ms=float(qs[0]) if qs[0] is not None else None,
        p95_ms=float(qs[1]) if qs[1] is not None else None,
        p99_ms=float(qs[2]) if qs[2] is not None else None,
        slo=slo,
    )
    if slo is not None:
        result = LoadResult(
            **{**result.__dict__, "violations": slo.violations(result)}
        )
    return result


def run_open_loop(
    server,
    *,
    n_requests: int = 10_000,
    num_nodes: int | None = None,
    offered_qps: float = 1_000_000.0,
    kind: str = "zipf",
    skew: float = 1.2,
    edge_fraction: float = 0.25,
    seed: int = 2023,
    slo: SLO | None = None,
) -> LoadResult:
    """Drive Poisson arrivals at *offered_qps* against the declared SLO.

    The workload is the seeded Zipf stream of
    :func:`~repro.serve.workload.synthetic_workload`; *num_nodes*
    defaults to the server's store size.  Arrival times are the
    timebase: the run's duration (and thus achieved qps) is virtual
    time from first arrival to last completion.
    """
    require(offered_qps > 0, "offered_qps must be positive")
    if num_nodes is None:
        num_nodes = server.num_nodes
    workload = synthetic_workload(
        n_requests,
        num_nodes,
        kind=kind,
        skew=skew,
        edge_fraction=edge_fraction,
        mean_interarrival_ns=1e9 / offered_qps,
        seed=seed,
    )
    slots, start_ns, end_ns = _replay(server, workload)
    return _result("open-loop", slots, start_ns, end_ns, float(offered_qps), slo)
