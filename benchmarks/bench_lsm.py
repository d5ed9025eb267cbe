"""LSM serving bench — read throughput under live edge ingest.

An :class:`LsmStore` serves a 10k-request Zipf workload with 10% write
traffic beside the immutable packed store serving the read-only stream:
every read completes, every scheduled write is applied, and every
compaction along the way leaves the store bit-exact against a
from-scratch rebuild of the same logical edge set.  The mixed /
read-only read-throughput ratio is recorded in ``BENCH_lsm.json`` under
``BENCH_WRITE_BASELINE=1`` as a ``domain: wall`` figure, not gated: a
ratio of two sub-second wall-clock runs spreads wider than any floor
worth setting, and ``ops_per_s`` @ ``serve_mixed`` of ``benchmarks/e2e``
is the gate for that path.  A compaction over the compact codec is
gated twice: its cost against a from-scratch build as a wall ceiling
(``domain: wall``, looser under ``CI``), and the base fields it decodes
as an exact count (``domain: count``).  What the write path's row memo
saves is gated as exact counts of segment decodes, which repeat for the
seed.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import open_store
from repro.analysis.serving import render_lsm_stats
from repro.analysis.tables import render_table
from repro.datasets import standin
from repro.lsm import LsmStore, apply_random_writes
from repro.serve import (
    GraphQueryServer,
    ManualClock,
    ServerConfig,
    WriteRequest,
    replay,
    synthetic_workload,
)

from conftest import baseline_record, baseline_section, report

N_REQUESTS = 10_000
WRITE_FRACTION = 0.1
REPEATS = 3  # best-of, per mode — one-off scheduler stalls don't gate
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_lsm.json"
# a patched compaction measured ~0.15x a build of the same edges on a
# 2-vCPU box; CI runners are noisy
COMPACT_CEILING = 0.6 if os.environ.get("CI") else 0.3

@pytest.fixture(scope="module")
def graph(medium_standin):
    """The stand-in with duplicate edges folded away: the LSM overlay
    is a *set* of edges (checked writes dedup), so a fair base is the
    deduplicated graph."""
    ds = medium_standin
    keys = np.unique(
        ds.sources.astype(np.int64) * ds.num_nodes + ds.destinations
    )
    return keys // ds.num_nodes, keys % ds.num_nodes, ds.num_nodes


@pytest.fixture(scope="module")
def packed(graph):
    src, dst, n = graph
    return open_store("packed", src, dst, n)


@pytest.fixture(scope="module")
def schedules(graph):
    """Read-only and mixed 10k-request Zipf workload factories."""
    src, dst, n = graph

    def make(write_fraction=0.0, seed=17):
        return synthetic_workload(
            N_REQUESTS,
            n,
            kind="zipf",
            skew=1.2,
            edge_fraction=0.25,
            mean_interarrival_ns=1_000.0,
            edges=(src, dst),
            seed=seed,
            write_fraction=write_fraction,
        )

    return make


def _serve_wallclock(store, workload, *, cache_elements=100_000):
    """Virtual-time replay, wall-clock timed: arrivals advance a
    ManualClock so both modes see identical size-closed batches, and
    the measured seconds are serving compute alone."""
    server = GraphQueryServer(
        store,
        config=ServerConfig(
            cache_elements=cache_elements,
            max_batch_size=256,
            max_wait_ns=500e3,
            queue_capacity=1 << 16,
            policy="block",
        ),
        clock=ManualClock(),
    )
    t0 = time.perf_counter()
    replay(server, workload)
    return server, time.perf_counter() - t0


def test_write_mix_gate(packed, schedules, medium_standin):
    """Mixed traffic completes every read and applies every write; the
    mixed / read-only read-qps ratio is recorded, not gated."""
    ds = medium_standin  # only for the baseline's provenance line
    ro_srv, ro_s = min(
        (_serve_wallclock(packed, schedules()) for _ in range(REPEATS)),
        key=lambda pair: pair[1],
    )
    ro = ro_srv.snapshot(elapsed_s=ro_s)

    n_writes = sum(
        isinstance(r, WriteRequest)
        for _, r in schedules(write_fraction=WRITE_FRACTION)
    )
    # fresh overlay and workload per repeat: request slots are
    # single-use, and replaying writes into an already warm memtable
    # would turn them all into cheap no-ops
    runs = []
    for _ in range(REPEATS):
        lsm = LsmStore(packed.num_nodes, [packed], compact_watermark=50_000)
        mixed = schedules(write_fraction=WRITE_FRACTION)
        runs.append((lsm, *_serve_wallclock(lsm, mixed)))
    lsm, mx_srv, mx_s = min(runs, key=lambda triple: triple[2])
    mx = mx_srv.snapshot(elapsed_s=mx_s)

    assert ro.completed == N_REQUESTS
    assert mx.completed == N_REQUESTS - n_writes
    assert mx.writes == n_writes

    # read qps = completed reads per wall-clock second
    ro_qps = ro.completed / ro_s
    mx_qps = mx.completed / mx_s
    ratio = mx_qps / ro_qps

    baseline = {
        "workload": (
            f"zipf(1.2), {N_REQUESTS} requests, 25% edge queries, "
            f"{WRITE_FRACTION:.0%} writes"
        ),
        "graph": (
            f"{ds.name} (deduped): {packed.num_nodes} nodes, "
            f"{packed.num_edges} edges"
        ),
        "read_only": {"seconds": ro_s, "read_qps": ro_qps},
        "mixed": {
            "seconds": mx_s,
            "read_qps": mx_qps,
            "writes": int(mx.writes),
            "write_noops": int(mx.write_noops),
            "write_ns_p50": mx.write_ns_p50,
            "write_ns_p99": mx.write_ns_p99,
            "memtable_edges": int(mx.memtable_edges),
            "compactions": int(mx.compactions),
        },
        "read_qps_ratio": {
            "value": ratio,
            "gate": "recorded, not gated (ops_per_s @ serve_mixed gates this path)",
            "domain": "wall",
        },
    }
    if os.environ.get("BENCH_WRITE_BASELINE") or not BASELINE_PATH.exists():
        baseline_record(
            BASELINE_PATH, baseline, name="lsm",
            gate="every read completes, every scheduled write is applied",
            measured=ratio,
        )

    report(
        f"Read throughput under live ingest ({N_REQUESTS} Zipf requests, "
        f"{WRITE_FRACTION:.0%} writes)",
        render_table(
            ["mode", "reads", "writes", "seconds", "read qps"],
            [
                ["packed read-only", ro.completed, 0, f"{ro_s:.3f}",
                 f"{ro_qps:,.0f}"],
                ["lsm mixed", mx.completed, n_writes, f"{mx_s:.3f}",
                 f"{mx_qps:,.0f}"],
            ],
            title=f"mixed/read-only qps ratio {ratio:.2f}x (recorded, not gated)",
        ) + "\n" + render_lsm_stats(lsm),
    )


def test_write_path_decode_counts(graph, schedules, monkeypatch):
    """Count gate (domain "count", exact for the seed): the writes of the
    10%-write stream, applied to an LSM over the compact codec, decode
    each written row from the segment once — its first write of the
    epoch — and a write to an already materialised row decodes nothing."""
    from repro.csr.compact import CompactStore

    src, dst, n = graph
    lsm = open_store("lsm", src, dst, n, inner="compact")
    writes = [r for _, r in schedules(write_fraction=WRITE_FRACTION)
              if isinstance(r, WriteRequest)]
    decoded, inner = [], CompactStore._decode_rows  # rows per segment decode
    monkeypatch.setattr(
        CompactStore, "_decode_rows",
        lambda self, keys: decoded.append(keys.shape[0]) or inner(self, keys))
    seen, rows_on_rewrite = set(), 0
    for w in writes:
        calls = len(decoded)
        (lsm.insert_edge if w.op == "insert" else lsm.delete_edge)(w.u, w.v)
        if w.u in seen:
            rows_on_rewrite += sum(decoded[calls:])
        seen.add(w.u)
    rows_decoded = sum(decoded)
    assert lsm.stats().compactions == 0  # one epoch
    assert rows_on_rewrite == 0 and rows_decoded == len(seen)

    section = {
        "segment_decodes_per_write_to_memoised_row": {
            "value": rows_on_rewrite, "gate": "== 0 (exact)", "domain": "count"},
        "segment_row_decodes_per_epoch": {
            "value": rows_decoded, "domain": "count",
            "gate": f"== {len(seen)} (exact)"},
        "distinct_rows_written": len(seen),
        "writes": len(writes),
    }
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"write_path_decodes": section})
    report(
        "LSM write path (count domain, compact inner)",
        f"{len(writes)} writes to {len(seen)} distinct rows: {rows_decoded} "
        f"segment row decodes, {rows_on_rewrite} on a write to a materialised row",
    )


def test_compaction_bitexact_under_traffic(packed, schedules):
    """Low watermark forces many compactions mid-stream; afterwards the
    overlay must equal a from-scratch rebuild of its logical edges."""
    lsm = LsmStore(packed.num_nodes, [packed], compact_watermark=500)
    server, _ = _serve_wallclock(lsm, schedules(write_fraction=0.2, seed=29))
    snap = server.snapshot()
    assert snap.compactions >= 1, "watermark never tripped"

    src, dst = lsm._logical_edges()
    rebuilt = open_store("packed", src, dst, lsm.num_nodes)
    assert rebuilt.num_edges == lsm.num_edges
    rng = np.random.default_rng(5)
    for u in rng.integers(0, lsm.num_nodes, 2_000).tolist():
        assert np.array_equal(
            np.asarray(lsm.neighbors(u), np.int64), rebuilt.neighbors(u)
        )
    us = rng.integers(0, lsm.num_nodes, 5_000)
    flat, offs = lsm.neighbors_batch(us)
    rflat, roffs = rebuilt.neighbors_batch(us)
    assert np.array_equal(offs, roffs)
    assert np.array_equal(np.asarray(flat, np.int64),
                          np.asarray(rflat, np.int64))
    report(
        "Compaction bit-exactness under 20% write traffic",
        render_lsm_stats(lsm, title="lsm store after serving"),
    )


def test_compact_cost_gate(monkeypatch):
    """``compact()`` on an LSM over the compact codec, 1,500 writes in
    the memtable, against a from-scratch build of the same edges — on
    the pokec stand-in at 1/16 scale (1.9M edges, four segments: the
    shape the end-to-end ``serve_mixed`` workload compacts), where the
    fixed cost per call is small beside the cost per edge.

    A compaction patches the segment: the clean rows' varint bytes are
    copied into the new segments and only the written rows are encoded,
    so it decodes no base field while every segment stays varint (count
    gate, exact; a rebuild decodes all of them).  Its wall cost must stay
    under a ceiling near the measured ~0.15x of the build (it was ~1.7x
    when a compaction scanned, merged and rebuilt); the compacted
    segment is bit-exact with that build."""
    from repro.bitpack import segcodec

    ds = standin("pokec", scale=1 / 16)
    n = ds.num_nodes
    lsm = open_store("lsm", ds.sources, ds.destinations, n, inner="compact")
    assert len(lsm.segments[0].segments) == 4

    def timed(fn):
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    # alternated, so both sides see the same allocator and cache state:
    # a compaction of 1,500 fresh writes, then a build of what it built
    compact_s = build_s = float("inf")
    for seed in range(7):
        apply_random_writes(lsm, 1_500, seed=seed)
        compact_s = min(compact_s, timed(lsm.compact))
        edges = lsm._logical_edges()
        build_s = min(build_s, timed(lambda: open_store("compact", *edges, n)))
    rebuilt = open_store("compact", *edges, n)
    got, want = lsm.segments[0].npz_payload(), rebuilt.npz_payload()
    assert all(np.array_equal(got[key], want[key]) for key in want)
    ratio = compact_s / build_s

    # every segment is varint, so every base field a compaction decodes
    # passes through the segment layer's one LEB128 decoder: the arena's
    # batch and one-row reads, and a coded segment some other codec wins
    decoded, inner = [], segcodec.varint_decode
    apply_random_writes(lsm, 1_500, seed=7)
    base_fields = lsm.segments[0].num_edges
    with monkeypatch.context() as mp:
        mp.setattr(segcodec, "varint_decode",
                   lambda *a, **k: decoded.append(len(out := inner(*a, **k))) or out)
        lsm.compact()
    assert {s.codec for s in lsm.segments[0].segments} == {"varint"}
    fields_decoded = sum(decoded)

    section = {
        "compact_vs_build_ratio": {
            "value": ratio, "gate": f"<= {COMPACT_CEILING}", "domain": "wall"},
        "compact_s": compact_s,
        "compact_build_s": build_s,
        "compact_decode_counts": {
            "base_fields_decoded_per_compaction": {
                "value": fields_decoded, "domain": "count",
                "gate": f"== 0 (exact; {base_fields} if every base field were decoded)"},
        },
    }
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, section)
    report(
        "Compaction cost (LSM over the compact codec, 1,500 writes resident)",
        f"compact() {compact_s * 1e3:.1f} ms, open_store('compact') "
        f"{build_s * 1e3:.1f} ms: {ratio:.2f}x (gate <= {COMPACT_CEILING}, "
        f"domain: wall); {fields_decoded} of {base_fields} base fields "
        "decoded (domain: count)",
    )
    assert fields_decoded == 0
    assert ratio <= COMPACT_CEILING
