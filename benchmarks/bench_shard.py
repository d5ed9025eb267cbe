"""Scatter-gather sharded store vs the monolithic packed CSR.

The gate: on a 10k-query Zipf workload (hot hubs repeated, the serving
regime the sharded layout targets) the sharded store's batched query
path must run at **parity or better** with the monolithic store.  The
shard-level deduplication is what pays for the scatter/gather copies —
each hot row is decoded once per shard instead of once per query.

Also asserts exact simulated-cost parity (the sharded store charges
the machine what the monolithic store would), that range shards hold
no more bytes than the monolithic store, and sweeps shard count x
partitioner for the EXPERIMENTS.md table.  The measured throughput
baseline lands in ``BENCH_shard.json`` under ``BENCH_WRITE_BASELINE=1``
(or when the file is missing).
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import open_store
from repro.analysis.tables import render_table
from repro.parallel import SerialExecutor, SimulatedMachine
from repro.query import batch_edge_existence, batch_neighbors
from repro.serve import zipf_nodes

from conftest import baseline_record, report

N_QUERIES = 10_000
SKEW = 1.2
SHARDS = 4
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"

# Local acceptance bar: the sharded scatter-gather path serves the
# Zipf workload at >= 1x monolithic throughput (measured ~1.5-1.8x —
# dedup beats the gather copies).  Shared CI runners are noisy, so CI
# only asserts the sharded path stays within 2x of monolithic.
PARITY_FLOOR = 0.5 if os.environ.get("CI") else 1.0


@pytest.fixture(scope="module")
def mono(medium_standin):
    ds = medium_standin
    return open_store("packed", ds.sources, ds.destinations, ds.num_nodes)


@pytest.fixture(scope="module")
def workload(medium_standin):
    """10k Zipf node lookups + 10k Zipf-source edge probes, half planted."""
    ds = medium_standin
    n = ds.num_nodes
    rng = np.random.default_rng(17)
    unodes = zipf_nodes(N_QUERIES, n, SKEW, rng=rng)
    qs = np.stack(
        [zipf_nodes(N_QUERIES, n, SKEW, rng=rng), rng.integers(0, n, N_QUERIES)],
        axis=1,
    )
    picks = rng.integers(0, ds.num_edges, N_QUERIES // 2)
    qs[: N_QUERIES // 2, 0] = ds.sources[picks]
    qs[: N_QUERIES // 2, 1] = ds.destinations[picks]
    return unodes, qs


def _sharded(ds, shards, partitioner):
    return open_store(
        "sharded", ds.sources, ds.destinations, ds.num_nodes,
        shards=shards, partitioner=partitioner,
    )


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _serve_workload(store, unodes, qs):
    ex = SerialExecutor()
    flat_offs = store.neighbors_batch(unodes)
    hits = batch_edge_existence(store, qs, ex)
    return flat_offs, hits


@pytest.mark.parametrize("partitioner", ["range", "hash"])
def test_scatter_gather_bitexact_on_workload(mono, medium_standin, workload,
                                             partitioner):
    unodes, qs = workload
    sharded = _sharded(medium_standin, SHARDS, partitioner)
    (want_fo, want_hits) = _serve_workload(mono, unodes, qs)
    (got_fo, got_hits) = _serve_workload(sharded, unodes, qs)
    assert np.array_equal(got_fo[0], want_fo[0])
    assert np.array_equal(got_fo[1], want_fo[1])
    assert np.array_equal(got_hits, want_hits)


@pytest.mark.parametrize("p", [1, 4, 16])
def test_simulated_cost_parity(mono, medium_standin, workload, p):
    """The sharded store charges the simulated machine exactly what the
    monolithic packed store charges — same decode width, same rows."""
    unodes, qs = workload
    sharded = _sharded(medium_standin, SHARDS, "range")
    m1, m2 = SimulatedMachine(p), SimulatedMachine(p)
    batch_neighbors(mono, unodes[:2000], m1)
    batch_neighbors(sharded, unodes[:2000], m2)
    assert m1.elapsed_ns() == m2.elapsed_ns()
    m1, m2 = SimulatedMachine(p), SimulatedMachine(p)
    batch_edge_existence(mono, qs[:2000], m1)
    batch_edge_existence(sharded, qs[:2000], m2)
    assert m1.elapsed_ns() == m2.elapsed_ns()


def test_zipf_parity_gate(mono, medium_standin, workload):
    """The headline gate: sharded scatter-gather at parity-or-better
    qps vs monolithic on the combined 10k-query Zipf workload."""
    unodes, qs = workload
    total = 2 * N_QUERIES

    t_mono, _ = _best_of(lambda: _serve_workload(mono, unodes, qs))
    rows = []
    results = {}
    gate_ratio = None
    for partitioner in ("range", "hash"):
        sharded = _sharded(medium_standin, SHARDS, partitioner)
        t_shard, _ = _best_of(lambda: _serve_workload(sharded, unodes, qs))
        ratio = t_mono / t_shard
        results[partitioner] = {
            "mono_s": t_mono,
            "sharded_s": t_shard,
            "qps_ratio": ratio,
            "sharded_qps": total / t_shard,
        }
        rows.append(
            [partitioner, f"{t_mono * 1e3:.1f}", f"{t_shard * 1e3:.1f}",
             f"{ratio:.2f}x", f"{total / t_shard:,.0f}"]
        )
        if partitioner == "range":
            gate_ratio = ratio

    baseline = {
        "store": f"ShardedStore x{SHARDS} over BitPackedCSR "
                 "(pokec stand-in, 1/64 scale)",
        "workload": f"{N_QUERIES} zipf({SKEW}) neighbors + "
                    f"{N_QUERIES} edge probes",
        "graph": {"nodes": int(mono.num_nodes), "edges": int(mono.num_edges)},
        "partitioners": results,
    }
    # refresh the committed baseline only on request — a plain test run
    # must not dirty the working tree with this machine's numbers
    if os.environ.get("BENCH_WRITE_BASELINE") or not BASELINE_PATH.exists():
        baseline_record(
            BASELINE_PATH, baseline, name="shard",
            gate=f"sharded qps >= {PARITY_FLOOR}x monolithic",
            measured=gate_ratio,
        )

    report(
        f"Sharded scatter-gather vs monolithic ({N_QUERIES}-query Zipf workload)",
        render_table(
            ["partitioner", "mono ms", "sharded ms", "qps ratio", "sharded q/s"],
            rows,
            title=f"{SHARDS} shards over packed CSR (gate: >= {PARITY_FLOOR}x)",
        ),
    )
    assert gate_ratio >= PARITY_FLOOR, (
        f"sharded qps fell to {gate_ratio:.2f}x of monolithic "
        f"(floor {PARITY_FLOOR}x)"
    )


def test_range_shard_memory_gate(mono, medium_standin):
    """A packed shard stores offsets only for its row window, so range
    shards together hold no more than the monolithic store: gated
    exactly at 2, 4 and 8 shards.  A hash shard's window is the whole
    node space; its rows are printed, not gated."""
    mono_mem = mono.memory_bytes()
    rows, over = [], []
    for partitioner in ("range", "hash"):
        for shards in (2, 4, 8):
            mem = _sharded(medium_standin, shards, partitioner).memory_bytes()
            rows.append([partitioner, str(shards), str(mem), f"{mem / mono_mem:.3f}x"])
            if partitioner == "range" and mem > mono_mem:
                over.append((shards, mem))
    report(
        "Sharded packed memory vs monolithic",
        render_table(["partitioner", "shards", "bytes", "memory"], rows,
                     title=f"monolithic {mono_mem} B (gate: range <= 1x)"),
    )
    assert not over, f"range shards outgrew the monolithic {mono_mem} B: {over}"


def test_shard_sweep_report(mono, medium_standin, workload):
    """Shard-count sweep for EXPERIMENTS.md: wall-clock of the Zipf
    workload and memory overhead as fan-out grows."""
    unodes, qs = workload
    t_mono, _ = _best_of(lambda: _serve_workload(mono, unodes, qs))
    mono_mem = mono.memory_bytes()
    rows = [["monolithic", "-", f"{t_mono * 1e3:.1f}", "1.00x", "1.00x"]]
    for partitioner in ("range", "hash"):
        for shards in (2, 4, 8, 16):
            store = _sharded(medium_standin, shards, partitioner)
            t, _ = _best_of(lambda: _serve_workload(store, unodes, qs))
            rows.append(
                [partitioner, str(shards), f"{t * 1e3:.1f}",
                 f"{t_mono / t:.2f}x",
                 f"{store.memory_bytes() / mono_mem:.2f}x"]
            )
    report(
        "Shard-count sweep (Zipf workload wall-clock, memory vs monolithic)",
        render_table(
            ["partitioner", "shards", "workload ms", "qps ratio", "memory"],
            rows,
        ),
    )
