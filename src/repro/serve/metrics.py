"""Serve-side observability: counters, histograms, and percentiles.

The serving layer's behaviour is a three-way trade — batch size buys
throughput, wait window costs latency, admission drops traffic — and
none of it is visible from kernel benchmarks alone.
:class:`ServeMetrics` records the request lifecycle as it happens
(batch size and close reason at dispatch,
per-request wait and latency at reply) and freezes into an immutable
:class:`ServeSnapshot` with p50/p95/p99 percentiles and power-of-two
histograms.  Rendering lives in :mod:`repro.analysis.serving`, beside
the other table renderers, and composes with
:class:`~repro.query.rowcache.RowCacheStats` so one report shows the
whole serve path: admission → coalescer → cache → kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ValidationError
from ..utils import require

__all__ = ["ServeMetrics", "ServeSnapshot", "quantiles", "log2_histogram"]

_QUANTILES = (0.50, 0.95, 0.99)


def quantiles(values, qs=_QUANTILES) -> tuple[float, ...]:
    """Linear-interpolated quantiles of *values* (zeros when empty).

    NaN samples raise a one-line :class:`~repro.errors.ValidationError`
    rather than silently poisoning every percentile downstream.
    """
    if len(values) == 0:
        return tuple(0.0 for _ in qs)
    arr = np.asarray(values, dtype=np.float64)
    if np.isnan(arr).any():
        raise ValidationError("quantiles: NaN is not a sample")
    return tuple(float(np.quantile(arr, q)) for q in qs)


def log2_histogram(values) -> dict[int, int]:
    """Counts bucketed by power-of-two upper bound.

    Bucket ``b`` counts values in ``(2**(b-1), 2**b]`` (bucket 0 holds
    values <= 1, including zeros), so wait times spanning decades stay
    a readable handful of rows.  NaN samples raise a one-line
    :class:`~repro.errors.ValidationError`.
    """
    out: dict[int, int] = {}
    for v in values:
        if v != v:
            raise ValidationError("log2_histogram: NaN is not a sample")
        b = 0 if v <= 1 else int(np.ceil(np.log2(float(v))))
        out[b] = out.get(b, 0) + 1
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class ServeSnapshot:
    """Immutable view of one serving run's accumulated metrics.

    Times are nanoseconds on the server's (possibly manual) clock,
    except ``service_ns_total`` which is always wall kernel time.
    """

    accepted: int
    completed: int
    rejected: int
    shed: int
    blocked: int
    batches: int
    close_reasons: dict[str, int]
    duplicates_coalesced: int
    queue_depth_high_watermark: int
    batch_size_histogram: dict[int, int]
    wait_ns_histogram: dict[int, int]
    wait_ns_p50: float
    wait_ns_p95: float
    wait_ns_p99: float
    latency_ns_p50: float
    latency_ns_p95: float
    latency_ns_p99: float
    service_ns_total: float
    elapsed_s: float | None = None
    writes: int = 0
    write_noops: int = 0
    write_ns_p50: float = 0.0
    write_ns_p95: float = 0.0
    write_ns_p99: float = 0.0
    memtable_edges: int = 0
    compactions: int = 0
    admission_enabled: bool = True

    @property
    def mean_batch_size(self) -> float:
        """Completed requests per dispatched batch (0.0 with no batches)."""
        return self.completed / self.batches if self.batches else 0.0

    @property
    def throughput_rps(self) -> float | None:
        """Completed requests per wall second (None without ``elapsed_s``)."""
        if self.elapsed_s is None or self.elapsed_s <= 0:
            return None
        return self.completed / self.elapsed_s


class ServeMetrics:
    """Mutable accumulator the server drives through one run.

    All record methods are O(1) appends/increments; percentile and
    histogram work happens once, in :meth:`snapshot`.
    """

    __slots__ = (
        "completed",
        "batches",
        "close_reasons",
        "duplicates_coalesced",
        "service_ns_total",
        "writes",
        "write_noops",
        "_batch_sizes",
        "_waits_ns",
        "_latencies_ns",
        "_write_ns",
    )

    def __init__(self):
        self.completed = 0
        self.batches = 0
        self.close_reasons: dict[str, int] = {}
        self.duplicates_coalesced = 0
        self.service_ns_total = 0.0
        self.writes = 0
        self.write_noops = 0
        self._batch_sizes: list[int] = []
        self._waits_ns: list[float] = []
        self._latencies_ns: list[float] = []
        self._write_ns: list[float] = []

    def record_batch(self, size: int, closed_by: str, duplicates: int,
                     service_ns: float) -> None:
        """Record one dispatched batch and its kernel wall time."""
        require(size >= 1, "batches are never empty")
        self.batches += 1
        self._batch_sizes.append(int(size))
        self.close_reasons[closed_by] = self.close_reasons.get(closed_by, 0) + 1
        self.duplicates_coalesced += int(duplicates)
        self.service_ns_total += float(service_ns)

    def record_replies(self, enqueued_ns: list[float], dispatch_ns: float,
                       complete_ns: float) -> None:
        """Record the wait and end-to-end latency of completed requests
        submitted at *enqueued_ns*, dispatched and completed together."""
        self.completed += len(enqueued_ns)
        self._waits_ns.extend([dispatch_ns - t for t in enqueued_ns])
        self._latencies_ns.extend([complete_ns - t for t in enqueued_ns])

    def record_write(self, service_ns: float, applied: bool) -> None:
        """Record one applied-inline write and its wall service time."""
        self.writes += 1
        if not applied:
            self.write_noops += 1
        self._write_ns.append(float(service_ns))

    def snapshot(self, admission_stats=None, *,
                 elapsed_s: float | None = None, lsm=None) -> ServeSnapshot:
        """Freeze the counters into a :class:`ServeSnapshot`.

        ``admission_stats`` (an
        :class:`~repro.serve.admission.AdmissionStats`) contributes the
        accepted/rejected/shed/blocked counts and the queue-depth
        high-water mark — passing ``None`` marks
        the snapshot ``admission_enabled=False``, so renderers can show
        "admission off" instead of a misleading zero-rejects row;
        ``elapsed_s`` enables
        the throughput property; ``lsm`` (an
        :class:`~repro.lsm.LsmStats`) contributes the write target's
        memtable size and compaction count.
        """
        wp50, wp95, wp99 = quantiles(self._waits_ns)
        lp50, lp95, lp99 = quantiles(self._latencies_ns)
        xp50, xp95, xp99 = quantiles(self._write_ns)
        return ServeSnapshot(
            accepted=admission_stats.accepted if admission_stats else self.completed,
            completed=self.completed,
            rejected=admission_stats.rejected if admission_stats else 0,
            shed=admission_stats.shed if admission_stats else 0,
            blocked=admission_stats.blocked if admission_stats else 0,
            batches=self.batches,
            close_reasons=dict(self.close_reasons),
            duplicates_coalesced=self.duplicates_coalesced,
            queue_depth_high_watermark=(
                admission_stats.high_watermark if admission_stats else 0),
            batch_size_histogram=log2_histogram(self._batch_sizes),
            wait_ns_histogram=log2_histogram(self._waits_ns),
            wait_ns_p50=wp50,
            wait_ns_p95=wp95,
            wait_ns_p99=wp99,
            latency_ns_p50=lp50,
            latency_ns_p95=lp95,
            latency_ns_p99=lp99,
            service_ns_total=self.service_ns_total,
            elapsed_s=elapsed_s,
            writes=self.writes,
            write_noops=self.write_noops,
            write_ns_p50=xp50,
            write_ns_p95=xp95,
            write_ns_p99=xp99,
            memtable_edges=getattr(lsm, "memtable_edges", 0),
            compactions=getattr(lsm, "compactions", 0),
            admission_enabled=admission_stats is not None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ServeMetrics(completed={self.completed}, batches={self.batches}, "
            f"coalesced_dups={self.duplicates_coalesced})"
        )
