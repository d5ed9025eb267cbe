"""Serving-layer bench — micro-batch coalescing vs one-at-a-time.

The PR-1 kernels made *batches* fast; this bench shows the serving
subsystem (``repro.serve``) actually converts an open-loop stream of
independent requests into that batch advantage: coalesced serving must
beat single-request serving by >= 2x on a 10k-request Zipf workload
over the packed CSR (acceptance gate), with the baseline recorded in
``BENCH_serve.json`` under ``BENCH_WRITE_BASELINE=1``.

A second, deterministic gate counts store reads: every micro-batch of
the same workload — all of them mixed, neighbour and edge requests
together — must walk a cache-less packed store exactly **once** (the
edge lane's source rows ride on the neighbour kernel's fetch), counted
by a proxy and checked exactly, not against a round multiple.  Two more
count the serve loop's per-request work on that workload: no
``Request.key`` tuple is built and no admission decision is asked for
below capacity.

The wait-window sweep runs on a :class:`ManualClock` — the arrival
schedule is the timebase — so the batch-size/latency trade-off table
is fully deterministic: larger windows buy bigger batches (throughput)
at the price of queueing latency.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.serving import render_serve_report
from repro.analysis.tables import render_table
from repro import open_store
from repro.query import QueryEngine
from repro.serve import (
    DONE,
    AdmissionController,
    EdgeRequest,
    GraphQueryServer,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    replay,
    synthetic_workload,
)

from conftest import baseline_record, baseline_section, report

N_REQUESTS = 10_000
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

# Exact count gate (domain "count"): store reads per mixed micro-batch.
# Two independent kernels read twice; the fused dispatch reads once.
STORE_READS_PER_BATCH = 1.0

# Acceptance bar: coalesced serving at least doubles single-request
# throughput.  Locally the measured gap is ~10-15x; the 2x floor keeps
# noisy shared CI runners from flaking while still catching a
# regression to per-request dispatch.
SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def packed(medium_standin):
    ds = medium_standin
    return open_store("packed", ds.sources, ds.destinations, ds.num_nodes)


@pytest.fixture(scope="module")
def zipf_schedule(medium_standin):
    """10k-request Zipf workload factory (fresh request objects per call,
    since submit mutates tickets/timestamps in place)."""
    ds = medium_standin

    def make(mean_interarrival_ns=0.0, seed=17):
        return synthetic_workload(
            N_REQUESTS,
            ds.num_nodes,
            kind="zipf",
            skew=1.2,
            edge_fraction=0.25,
            mean_interarrival_ns=mean_interarrival_ns,
            edges=(ds.sources, ds.destinations),
            seed=seed,
        )

    return make


def _serve_wallclock(store, workload, *, batch, wait_us, cache_elements=0):
    server = GraphQueryServer(
        store,
        config=ServerConfig(
            cache_elements=cache_elements,
            max_batch_size=batch,
            max_wait_ns=wait_us * 1e3,
            queue_capacity=1 << 16,
            policy="block",
        ),
    )
    t0 = time.perf_counter()
    for _, request in workload:
        server.submit(request)
    server.drain()
    return server, time.perf_counter() - t0


class _CountingStore:
    """Forwards everything; counts top-level ``neighbors_batch`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.reads = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def neighbors_batch(self, unodes):
        self.reads += 1
        return self._inner.neighbors_batch(unodes)


@pytest.fixture(scope="module")
def store_reads(packed, zipf_schedule, batch=256):
    """``(reads per batch, batches)`` of the Zipf workload served
    size-closed on a frozen :class:`ManualClock`, so batch ``k`` is
    exactly requests ``[k * batch, (k + 1) * batch)`` — every one of
    them must be mixed for the count to mean "per mixed micro-batch"."""
    requests = [request for _, request in zipf_schedule()]
    for lo in range(0, len(requests), batch):
        kinds = {isinstance(r, EdgeRequest) for r in requests[lo:lo + batch]}
        assert kinds == {True, False}, f"batch at {lo} is not mixed"
    store = _CountingStore(packed)
    server = GraphQueryServer(
        store,
        config=ServerConfig(max_batch_size=batch, max_wait_ns=1e18,
                            queue_capacity=1 << 16),
        clock=ManualClock(),
    )
    for request in requests:
        server.submit(request)
    server.drain()
    batches = server.snapshot().batches
    assert batches == -(-len(requests) // batch)
    return store.reads / batches, batches


def test_one_store_read_per_mixed_batch(store_reads):
    """Deterministic gate: each mixed micro-batch reads the store once
    (parent: 2.0), equal to the recorded baseline exactly."""
    reads, batches = store_reads
    report(
        "Store reads per mixed micro-batch (cache-less packed store)",
        f"{reads:.1f} reads/batch over {batches} mixed batches "
        f"(gate == {STORE_READS_PER_BATCH}, domain: count)",
    )
    assert reads == STORE_READS_PER_BATCH
    if BASELINE_PATH.exists():
        recorded = json.loads(BASELINE_PATH.read_text()).get(
            "store_reads_per_mixed_batch")
        if recorded is not None:
            assert recorded["domain"] == "count"
            assert reads == recorded["value"]


def test_serve_loop_per_request_counts(packed, zipf_schedule, monkeypatch):
    """Count gate (domain "count", exact for the seed): serving the 10k
    Zipf workload — size-closed batches on a frozen :class:`ManualClock`,
    the coalesced run's queue and policy — reads no ``Request.key`` (the
    batch plan keys lanes by the ids; parent: one tuple per request,
    10,000) and asks the admission policy for no decision below capacity
    (parent: one per submit, 10,000)."""
    counts = {"request_keys_built": 0, "admission_decisions_below_capacity": 0}

    def counted_key(fget):
        def key(self):
            counts["request_keys_built"] += 1
            return fget(self)
        return property(key)

    for cls in (NeighborsRequest, EdgeRequest):
        monkeypatch.setattr(cls, "key", counted_key(cls.key.fget))
    decide = AdmissionController.decide

    def counted_decide(self, depth):
        counts["admission_decisions_below_capacity"] += depth < self.capacity
        return decide(self, depth)

    monkeypatch.setattr(AdmissionController, "decide", counted_decide)
    server = GraphQueryServer(
        packed,
        config=ServerConfig(max_batch_size=256, max_wait_ns=500e3,
                            queue_capacity=1 << 16, policy="block"),
        clock=ManualClock(),
    )
    for _, request in zipf_schedule():
        server.submit(request)
    server.drain()
    assert server.snapshot().completed == N_REQUESTS

    section = {
        name: {"value": value, "gate": "== 0 (exact)", "domain": "count"}
        for name, value in counts.items()
    }
    section["requests"] = N_REQUESTS
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"serve_loop_counts": section})
    report(
        "Serve loop per-request work (count domain, 10k Zipf requests)",
        render_table(["count", "value", "gate"],
                     [[name, value, "== 0"] for name, value in counts.items()]),
    )
    assert counts == dict.fromkeys(counts, 0)
    if BASELINE_PATH.exists():
        recorded = json.loads(BASELINE_PATH.read_text()).get("serve_loop_counts")
        if recorded is not None:
            for name, value in counts.items():
                assert recorded[name]["domain"] == "count"
                assert value == recorded[name]["value"]


def test_coalesced_vs_single_request_throughput(packed, zipf_schedule, store_reads):
    """The tentpole gate: coalescing >= 2x single-request serving, with
    replies spot-checked bit-exact against direct QueryEngine calls."""
    single_srv, single_s = _serve_wallclock(
        packed, zipf_schedule(), batch=1, wait_us=0.0
    )
    coal_srv, coal_s = _serve_wallclock(
        packed, zipf_schedule(), batch=256, wait_us=500.0
    )
    single = single_srv.snapshot(elapsed_s=single_s)
    coal = coal_srv.snapshot(elapsed_s=coal_s)
    assert single.completed == coal.completed == N_REQUESTS
    speedup = coal.throughput_rps / single.throughput_rps

    baseline = {
        "workload": f"zipf(1.2), {N_REQUESTS} requests, 25% edge queries",
        "store": repr(packed),
        "single_request": {
            "seconds": single_s,
            "requests_per_s": single.throughput_rps,
        },
        "coalesced": {
            "max_batch": 256,
            "wait_us": 500.0,
            "seconds": coal_s,
            "requests_per_s": coal.throughput_rps,
            "mean_batch_size": coal.mean_batch_size,
            "duplicates_coalesced": coal.duplicates_coalesced,
        },
        "speedup": speedup,
        "store_reads_per_mixed_batch": {
            "value": store_reads[0],
            "gate": f"== {STORE_READS_PER_BATCH} (exact)",
            "domain": "count",
        },
    }
    if os.environ.get("BENCH_WRITE_BASELINE") or not BASELINE_PATH.exists():
        baseline_record(
            BASELINE_PATH, baseline, name="serve",
            gate=f"coalesced >= {SPEEDUP_FLOOR}x single-request throughput",
            measured=speedup,
        )

    report(
        f"Serving throughput: coalesced vs single-request ({N_REQUESTS} Zipf requests)",
        render_table(
            ["mode", "batch", "seconds", "req/s"],
            [
                ["single-request", 1, f"{single_s:.3f}",
                 f"{single.throughput_rps:,.0f}"],
                ["coalesced", 256, f"{coal_s:.3f}",
                 f"{coal.throughput_rps:,.0f}"],
            ],
            title=f"coalesced speedup {speedup:.1f}x (floor {SPEEDUP_FLOOR}x)",
        ),
    )
    assert speedup >= SPEEDUP_FLOOR, f"coalescing only {speedup:.2f}x"


def test_serving_replies_bit_exact_sample(packed, zipf_schedule):
    """Every reply of a served workload equals the direct engine answer."""
    engine = QueryEngine(packed)
    server = GraphQueryServer(
        packed,
        config=ServerConfig(
            max_batch_size=128, max_wait_ns=0.0, queue_capacity=1 << 16
        ),
    )
    slots = [server.submit(req) for _, req in zipf_schedule(seed=43)[:2_000]]
    server.drain()
    for slot in slots:
        assert slot.status == DONE
        req = slot.request
        if isinstance(req, NeighborsRequest):
            assert np.array_equal(slot.result(), engine.neighbors([req.node])[0])
        else:
            assert slot.result() == bool(engine.has_edges([(req.u, req.v)])[0])


def test_batch_wait_latency_tradeoff(packed, zipf_schedule):
    """Deterministic virtual-time sweep: larger wait windows buy larger
    batches at a queueing-latency cost (the serving layer's knob)."""
    rows = []
    batch_means, p95s = [], []
    for wait_us in (0.0, 10.0, 50.0, 200.0, 1000.0):
        clock = ManualClock()
        server = GraphQueryServer(
            packed,
            config=ServerConfig(
                max_batch_size=256,
                max_wait_ns=wait_us * 1e3,
                queue_capacity=1 << 16,
            ),
            clock=clock,
        )
        replay(server, zipf_schedule(mean_interarrival_ns=1_000.0, seed=31))
        snap = server.snapshot()
        assert snap.completed == N_REQUESTS
        rows.append([
            f"{wait_us:.0f}",
            f"{snap.mean_batch_size:.1f}",
            f"{snap.wait_ns_p50 / 1e3:.1f}",
            f"{snap.wait_ns_p95 / 1e3:.1f}",
            f"{snap.latency_ns_p95 / 1e3:.1f}",
            snap.batches,
        ])
        batch_means.append(snap.mean_batch_size)
        p95s.append(snap.wait_ns_p95)
    # the trade-off must actually trade: batches grow, waiting grows
    assert all(a <= b + 1e-9 for a, b in zip(batch_means, batch_means[1:]))
    assert all(a <= b + 1e-9 for a, b in zip(p95s, p95s[1:]))
    assert batch_means[-1] > 4 * batch_means[0]
    report(
        "Batch-wait window vs latency (virtual time, 1us mean interarrival)",
        render_table(
            ["wait window (us)", "mean batch", "wait p50 (us)",
             "wait p95 (us)", "latency p95 (us)", "batches"],
            rows,
            title="micro-batch coalescer trade-off (deterministic ManualClock)",
        ),
    )


def test_serve_metrics_snapshot_report(packed, zipf_schedule):
    """One full serving report — metrics, histograms, row cache — the
    observability surface the ROADMAP's ops story needs."""
    server, elapsed = _serve_wallclock(
        packed, zipf_schedule(seed=59), batch=256, wait_us=500.0,
        cache_elements=200_000,
    )
    snap = server.snapshot(elapsed_s=elapsed)
    assert snap.duplicates_coalesced > 0  # zipf traffic dedups in-batch
    assert server.row_cache is not None
    assert server.row_cache.stats().hit_rate > 0.2
    report(
        "Serving report (coalesced, row-cached, Zipf traffic)",
        render_serve_report(snap, server.row_cache),
    )
