"""Table rendering for serve-side metrics.

Turns a :class:`~repro.serve.metrics.ServeSnapshot` into the same
aligned-text tables the rest of the harness prints
(:func:`~repro.analysis.tables.render_table` idiom), and composes the
serving view with a :class:`~repro.query.rowcache.RowCache`'s counters
so one report covers the whole path: admission → coalescer → cache →
kernels.
"""

from __future__ import annotations

from .tables import render_table

__all__ = [
    "render_cache_stats",
    "render_serve_metrics",
    "render_serve_histograms",
    "render_serve_report",
    "render_lsm_stats",
    "render_cluster_report",
    "render_load_result",
]


def _us(ns: float) -> str:
    return f"{ns / 1e3:.1f}"


def render_serve_metrics(snap, *, title: str = "serve metrics") -> str:
    """The snapshot's counters and percentiles as one counter/value table."""
    rows = [
        ["accepted", snap.accepted],
        ["completed", snap.completed],
    ]
    if getattr(snap, "admission_enabled", True):
        rows += [
            ["rejected", snap.rejected],
            ["shed", snap.shed],
            ["blocked (backpressure)", snap.blocked],
        ]
    else:
        # zero rejects from a server with no admission controller is
        # not the same claim as zero rejects under admission — say so
        rows.append(["admission", "off (no controller wired)"])
    rows += [
        ["batches dispatched", snap.batches],
        ["mean batch size", f"{snap.mean_batch_size:.1f}"],
        ["close reasons", " ".join(
            f"{k}={v}" for k, v in sorted(snap.close_reasons.items())) or "-"],
        ["duplicates coalesced", snap.duplicates_coalesced],
        ["queue depth high-water", snap.queue_depth_high_watermark],
        ["wait p50/p95/p99 (us)",
         f"{_us(snap.wait_ns_p50)} / {_us(snap.wait_ns_p95)} / {_us(snap.wait_ns_p99)}"],
        ["latency p50/p95/p99 (us)",
         f"{_us(snap.latency_ns_p50)} / {_us(snap.latency_ns_p95)} / "
         f"{_us(snap.latency_ns_p99)}"],
        ["kernel service time (ms)", f"{snap.service_ns_total / 1e6:.2f}"],
    ]
    if snap.writes:
        rows += [
            ["writes applied", snap.writes - snap.write_noops],
            ["write no-ops", snap.write_noops],
            ["write p50/p95/p99 (us)",
             f"{_us(snap.write_ns_p50)} / {_us(snap.write_ns_p95)} / "
             f"{_us(snap.write_ns_p99)}"],
            ["memtable edges", snap.memtable_edges],
            ["compactions", snap.compactions],
        ]
    if snap.throughput_rps is not None:
        rows.append(["throughput (req/s)", f"{snap.throughput_rps:,.0f}"])
    return render_table(["counter", "value"], rows, title=title)


def render_serve_histograms(snap, *, title: str = "serve histograms") -> str:
    """Batch-size and wait-time distributions, power-of-two buckets."""
    rows = []
    for bucket, count in snap.batch_size_histogram.items():
        rows.append(["batch size", f"<= {1 << bucket}", count])
    for bucket, count in snap.wait_ns_histogram.items():
        rows.append(["wait (ns)", f"<= {1 << bucket}", count])
    if not rows:
        rows.append(["-", "-", 0])
    return render_table(["histogram", "bucket", "count"], rows, title=title)


def render_lsm_stats(store, *, title: str = "lsm store") -> str:
    """Structure and write counters of an :class:`~repro.lsm.LsmStore`.

    Accepts anything exposing ``stats()`` returning an
    :class:`~repro.lsm.LsmStats`-shaped snapshot, so the CLI's ``info``
    and ``query --writes`` surfaces share one table.
    """
    stats = store.stats()
    rows = [
        ["segments", stats.segments],
        ["memtable edges", stats.memtable_edges],
        ["tombstones", stats.tombstones],
        ["logical edges", stats.logical_edges],
        ["inserts applied", stats.inserts],
        ["deletes applied", stats.deletes],
        ["write no-ops", stats.write_noops],
        ["compactions", stats.compactions],
        ["flushes", stats.flushes],
        ["compact watermark", stats.compact_watermark or "off"],
    ]
    return render_table(["counter", "value"], rows, title=title)


def render_cache_stats(cache, *, title: str = "row cache") -> str:
    """Hit/miss table for a :class:`~repro.query.rowcache.RowCache`.

    Accepts anything exposing ``stats()`` returning a
    :class:`~repro.query.rowcache.RowCacheStats`-shaped snapshot, so the
    serving report and the CLI's ``info`` share one table.
    """
    stats = cache.stats()
    rows = [
        ["hits", stats.hits],
        ["misses", stats.misses],
        ["hit rate", f"{stats.hit_rate * 100:.1f}%"],
        ["evictions", stats.evictions],
        ["refused", getattr(stats, "refused", 0)],
        ["invalidations", getattr(stats, "invalidations", 0)],
        ["resident rows", stats.rows],
        ["resident elements", stats.elements],
        ["capacity (elements)", stats.capacity],
    ]
    return render_table(["counter", "value"], rows, title=title)


def render_serve_report(snap, cache=None, *, title: str = "serving report") -> str:
    """Metrics + histograms, plus the row cache's counters when given.

    *cache* is anything accepted by
    :func:`render_cache_stats` (a
    :class:`~repro.query.rowcache.RowCache` or compatible); pass a
    server's ``row_cache`` to see coalescing and caching side by side.
    """
    parts = [
        render_serve_metrics(snap, title=title),
        "",
        render_serve_histograms(snap),
    ]
    if cache is not None:
        parts += ["", render_cache_stats(cache, title="row cache (serve path)")]
    return "\n".join(parts)


def render_cluster_report(router, *, title: str = "cluster report") -> str:
    """Where the scattered work landed, worker by worker.

    Takes a :class:`~repro.cluster.Router` and renders its
    :meth:`~repro.cluster.Router.cluster_stats`: a per-worker table
    (shard, liveness, sub-batches, requests, busy time, hedge wins),
    a per-shard dispatch table, the per-tenant completion counts, and
    the router's hedging/retry/failure counters.
    """
    stats = router.cluster_stats()
    worker_rows = [
        [
            w.worker_id,
            w.shard_id,
            "up" if w.alive else "down",
            w.subs_served,
            w.requests_served,
            f"{w.busy_ns / 1e6:.3f}",
            w.hedge_wins,
        ]
        for w in stats.per_worker
    ]
    parts = [
        render_table(
            ["worker", "shard", "state", "subs", "requests",
             "busy (ms)", "hedge wins"],
            worker_rows,
            title=title,
        ),
        "",
        render_table(
            ["shard", "subs dispatched"],
            [[s, c] for s, c in sorted(stats.per_shard.items())],
            title="per-shard dispatch",
        ),
    ]
    if stats.per_tenant:
        parts += [
            "",
            render_table(
                ["tenant", "completed"],
                [[t, c] for t, c in sorted(stats.per_tenant.items())],
                title="per-tenant completions",
            ),
        ]
    parts += [
        "",
        render_table(
            ["counter", "value"],
            [
                ["shards x replicas", f"{stats.shards} x {stats.replicas}"],
                ["subs dispatched", stats.subs_dispatched],
                ["hedges launched", stats.hedges_launched],
                ["duplicate completions dropped", stats.duplicate_completions],
                ["retries after failure", stats.retries],
                ["failed requests", stats.failed_requests],
                ["quota-rejected requests", stats.quota_rejected],
            ],
            title="router counters",
        ),
    ]
    return "\n".join(parts)


def render_load_result(result, *, title: str = "load run") -> str:
    """One :class:`~repro.serve.loadgen.LoadResult` as a table.

    Rates, completion breakdown, tail latencies, and — when the run
    declared an :class:`~repro.serve.loadgen.SLO` — the verdict with
    every violated bound spelled out.
    """
    rows = [
        ["mode", result.mode],
        ["requests", result.requests],
        ["completed", result.completed],
        ["rejected / shed / failed",
         f"{result.rejected} / {result.shed} / {result.failed}"],
        ["duration (virtual s)", f"{result.duration_s:.6f}"],
        ["offered qps",
         f"{result.offered_qps:,.0f}" if result.offered_qps else "closed"],
        ["achieved qps", f"{result.achieved_qps:,.0f}"],
    ]
    for name, v in (("p50", result.p50_ms), ("p95", result.p95_ms),
                    ("p99", result.p99_ms)):
        rows.append([f"latency {name} (ms)",
                     f"{v:.3f}" if v is not None else "-"])
    if result.slo is not None:
        rows.append(["slo", "met" if result.met
                     else "; ".join(result.violations)])
    return render_table(["field", "value"], rows, title=title)
