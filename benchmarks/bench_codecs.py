"""Section III-A3 ablation — which codec should pack the CSR arrays?

Bits per edge for the column array under every segment codec (sized by
its ``SEGMENT_CODECS`` entry's exact ``measure``) and the Elias
gamma/delta codes, raw and gap-transformed, per stand-in graph.  The
paper packs fixed-width; this bench quantifies what gap + fixed (and the
variable-length codes) buy on social topologies.  The 56 bit totals
behind the table are pinned exactly in ``BENCH_codecs.json``.

Also home of the **compact pipeline gate** (DESIGN.md §9): degree
reordering + adaptive per-segment codecs must reach <= 12.8 bits/edge
on the pokec stand-in while serving the Zipf workload at >= 1.0x the
fixed-width packed qps (CI asserts a relaxed 0.4x floor — shared
runners are noisy; the bits/edge bound is deterministic and holds
everywhere).  Baselines land in ``BENCH_codecs.json`` under
``BENCH_WRITE_BASELINE=1`` (or when the file is missing).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.bitpack import (
    SEGMENT_CODECS,
    elias_delta_nbits,
    elias_gamma_nbits,
    fixed,
    row_gaps,
    segcodec,
    segment_codec,
    varint,
)
from repro import open_store
from repro.query import batch_edge_existence
from repro.serve import zipf_nodes

from conftest import baseline_record, baseline_section, report

N_QUERIES = 10_000
SKEW = 1.2
BITS_PER_EDGE_GATE = 12.8
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_codecs.json"

# Local bar per ISSUE acceptance: the reordered+compact store serves the
# Zipf batch workload at least as fast as the fixed-width packed path
# (dedup + smaller decode widths more than pay for the id translation).
# CI runners are noisy, so CI asserts a 0.4x floor.
QPS_FLOOR = 0.4 if os.environ.get("CI") else 1.0


# The ablation's columns: every segment codec by its table entry's exact
# measure, plus the Elias code lengths (comparators, never a segment codec).
CODEC_NBITS = {name: segment_codec(name).measure for name in SEGMENT_CODECS}
CODEC_NBITS["elias_gamma"] = lambda values: int(elias_gamma_nbits(values).sum())
CODEC_NBITS["elias_delta"] = lambda values: int(elias_delta_nbits(values).sum())


@pytest.fixture(scope="module")
def graphs(standins):
    out = {}
    for name, ds in standins.items():
        # the 300k-edge cap keeps the size table comparable with its
        # pinned totals and with EXPERIMENTS.md
        src = ds.sources[:300_000]
        dst = ds.destinations[:300_000]
        n = ds.num_nodes
        out[name] = open_store("csr-serial", src, dst, n)
    return out


@pytest.mark.parametrize("codec_name", SEGMENT_CODECS)
def test_codec_encode_wallclock(benchmark, graphs, codec_name):
    payload = row_gaps(graphs["pokec"].indptr, graphs["pokec"].indices)[:100_000]
    _, bits, _ = benchmark(segment_codec(codec_name).encode, payload)
    assert bits.nbits > 0


def test_codec_size_matrix(benchmark, graphs):
    def build_matrix():
        totals = {}
        for name, g in graphs.items():
            raw, gaps = np.asarray(g.indices), row_gaps(g.indptr, g.indices)
            totals[name] = {
                codec: {"raw": CODEC_NBITS[codec](raw), "gap": CODEC_NBITS[codec](gaps)}
                for codec in sorted(CODEC_NBITS)
            }
        return totals

    totals = benchmark.pedantic(build_matrix, rounds=1, iterations=1)
    rows = [
        [name] + [f"{bits['raw'] / graphs[name].num_edges:.1f}/"
                  f"{bits['gap'] / graphs[name].num_edges:.1f}"
                  for bits in row.values()]
        for name, row in totals.items()
    ]
    headers = ["graph"] + [f"{c} raw/gap" for c in sorted(CODEC_NBITS)]
    report(
        "Codec ablation: column-array bits/edge (raw / gap-transformed)",
        render_table(headers, rows),
    )
    section = {
        name: {codec: {kind: {"value": n, "gate": f"== {n} (exact)", "domain": "count"}
                       for kind, n in bits.items()}
               for codec, bits in row.items()}
        for name, row in totals.items()
    }
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"codec_size_matrix": section})
    assert len(rows) == 4
    assert json.loads(BASELINE_PATH.read_text())["codec_size_matrix"] == section


def test_representation_comparison(benchmark, graphs):
    """Whole-structure bits/edge: the paper's packed CSR vs the
    gap-transformed variant."""

    def build():
        rows = []
        for name, g in graphs.items():
            if g.num_edges == 0:
                continue
            edges = (*g.edges(), g.num_nodes)
            packed = open_store("packed", *edges)
            gap = open_store("gap", *edges)
            rows.append(
                [
                    name,
                    f"{packed.bits_per_edge():.2f}",
                    f"{gap.bits_per_edge():.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        "Representation comparison: total bits/edge",
        render_table(["graph", "bit-packed CSR (paper)", "gap + packed"], rows),
    )
    assert len(rows) == 4


# --- compact pipeline: reordering x adaptive codecs ---------------------


@pytest.fixture(scope="module")
def mono(medium_standin):
    ds = medium_standin
    return open_store("packed", ds.sources, ds.destinations, ds.num_nodes)


@pytest.fixture(scope="module")
def compact_reordered(medium_standin):
    ds = medium_standin
    return open_store(
        "reordered", ds.sources, ds.destinations, ds.num_nodes,
        order="degree", inner="compact", codecs="auto",
    )


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


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _serve_workload(store, unodes, qs):
    flat_offs = store.neighbors_batch(unodes)
    hits = batch_edge_existence(store, qs)
    return flat_offs, hits


def test_compact_bitexact_on_workload(mono, compact_reordered, workload):
    unodes, qs = workload
    (want_flat, want_offs), want_hits = _serve_workload(mono, unodes, qs)
    (got_flat, got_offs), got_hits = _serve_workload(
        compact_reordered, unodes, qs
    )
    assert np.array_equal(got_offs, want_offs)
    assert np.array_equal(
        np.asarray(got_flat, dtype=np.int64), np.asarray(want_flat, dtype=np.int64)
    )
    assert np.array_equal(got_hits, want_hits)


def test_compact_pipeline_gate(mono, compact_reordered, workload):
    """The headline gate: degree reordering + adaptive codecs at
    <= 12.8 bits/edge, serving no slower than the fixed-width path."""
    unodes, qs = workload
    total = 2 * N_QUERIES
    bits = compact_reordered.bits_per_edge()

    _serve_workload(compact_reordered, unodes, qs)  # warm
    t_mono, _ = _best_of(lambda: _serve_workload(mono, unodes, qs))
    t_compact, _ = _best_of(
        lambda: _serve_workload(compact_reordered, unodes, qs)
    )
    ratio = t_mono / t_compact

    breakdown = compact_reordered.inner.codec_breakdown()
    baseline = {
        "store": "ReorderedStore(degree) over CompactStore(auto), "
                 "pokec stand-in, 1/64 scale",
        "workload": f"{N_QUERIES} zipf({SKEW}) neighbors + "
                    f"{N_QUERIES} edge probes",
        "graph": {
            "nodes": int(mono.num_nodes), "edges": int(mono.num_edges)
        },
        "packed_bits_per_edge": mono.bits_per_edge(),
        "compact_bits_per_edge": bits,
        "codec_breakdown": {
            name: {k: int(v) for k, v in row.items()}
            for name, row in sorted(breakdown.items())
        },
        "mono_s": t_mono,
        "compact_s": t_compact,
        "qps_ratio": ratio,
        "compact_qps": total / t_compact,
    }
    # refresh the committed baseline only on request — a plain test run
    # must not dirty the working tree with this machine's numbers
    if os.environ.get("BENCH_WRITE_BASELINE") or not BASELINE_PATH.exists():
        baseline_record(
            BASELINE_PATH, baseline, name="codecs",
            gate=(f"<= {BITS_PER_EDGE_GATE} bits/edge and "
                  f">= {QPS_FLOOR}x packed-fixed qps"),
            measured=ratio,
        )

    report(
        f"Compact pipeline gate ({N_QUERIES}-query Zipf workload)",
        render_table(
            ["store", "bits/edge", "workload ms", "qps ratio"],
            [
                ["packed fixed (paper)", f"{mono.bits_per_edge():.2f}",
                 f"{t_mono * 1e3:.1f}", "1.00x"],
                ["degree + compact", f"{bits:.2f}",
                 f"{t_compact * 1e3:.1f}", f"{ratio:.2f}x"],
            ],
            title=(f"gates: <= {BITS_PER_EDGE_GATE} bits/edge, "
                   f">= {QPS_FLOOR}x qps"),
        ),
    )
    assert bits <= BITS_PER_EDGE_GATE, (
        f"compact pipeline at {bits:.2f} bits/edge "
        f"(gate {BITS_PER_EDGE_GATE})"
    )
    assert ratio >= QPS_FLOOR, (
        f"compact qps fell to {ratio:.2f}x of packed fixed "
        f"(floor {QPS_FLOOR}x)"
    )


# Word-load vs positional varint decode of one segment's stream.  Locally
# the word kernel lands around 4x; CI runners are noisy.
WORD_DECODE_FLOOR = 1.2 if os.environ.get("CI") else 1.5


def test_varint_kernel_gates(medium_standin, monkeypatch):
    """Where the variable-width read path does its work: a batch costs
    one varint kernel call however many segments it touches (domain
    "count", exact), and that call decodes by word loads, not by one
    masked pass per byte position (domain "wall")."""
    ds = medium_standin
    store = open_store(
        "compact", ds.sources, ds.destinations, ds.num_nodes,
        segment_bytes=1 << 18,
    )
    assert [s.codec for s in store.segments] == ["varint"] * 4

    keys = zipf_nodes(64, ds.num_nodes, SKEW, rng=np.random.default_rng(23))
    firsts = np.asarray([s.first_row for s in store.segments])
    touched = np.unique(np.searchsorted(firsts, keys, side="right") - 1).size
    assert touched >= 3  # one call per touched segment would be 3-4
    calls, kernel = [], segcodec.varint_decode
    with monkeypatch.context() as mp:
        mp.setattr(segcodec, "varint_decode",
                   lambda *a, **k: calls.append(1) or kernel(*a, **k))
        flat, offsets = store.neighbors_batch(keys)
    packed = open_store("packed", ds.sources, ds.destinations, ds.num_nodes)
    want = packed.neighbors_batch(keys)
    assert np.array_equal(flat, want[0]) and np.array_equal(offsets, want[1])

    payload = max(store.segments, key=lambda s: s.num_fields).payload
    stream = payload.buffer[: payload.nbytes]
    t_word, fast = _best_of(lambda: varint.varint_decode(stream), repeats=7)
    with monkeypatch.context() as mp:
        mp.setattr(varint, "_LITTLE_ENDIAN", False)  # what a big-endian host runs
        t_positional, slow = _best_of(lambda: varint.varint_decode(stream), repeats=7)
    assert np.array_equal(fast, slow)
    ratio = t_positional / t_word

    section = {
        "varint_kernel_calls_per_compact_batch": {
            "value": len(calls), "gate": "== 1 (exact)", "domain": "count"},
        "varint_word_vs_positional_decode_ratio": {
            "value": ratio, "gate": f">= {WORD_DECODE_FLOOR}", "domain": "wall"},
    }
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"varint_read_path": section})
    report(
        "Variable-width read path (4 varint segments, pokec stand-in)",
        render_table(
            ["figure", "value", "gate", "domain"],
            [[name, f"{entry['value']:.3g}", entry["gate"], entry["domain"]]
             for name, entry in section.items()],
            title=(f"64 Zipf({SKEW}) keys touching {touched} segments; "
                   f"{fast.shape[0]}-value stream: word {t_word * 1e3:.2f} ms, "
                   f"positional {t_positional * 1e3:.2f} ms"),
        ),
    )
    assert len(calls) == 1
    assert ratio >= WORD_DECODE_FLOOR


# Gather-only vs routed decode of the stand-in's longest row (7,775
# fields).  Locally the strided kernel lands around 2x; CI runners are noisy.
LONG_ROW_FLOOR = 1.2 if os.environ.get("CI") else 1.5


def test_fixed_kernel_gates(medium_standin, monkeypatch):
    """Where the fixed-width read path does its work: a packed batch
    sends only its short rows and its offset windows through the
    word-load gather (domain "count", exact: every run of at least
    ``_RUN_MIN_FIELDS`` fields takes the strided kernel), and a hub row
    decodes faster that way than gathered (domain "wall")."""
    ds = medium_standin
    packed = open_store("packed", ds.sources, ds.destinations, ds.num_nodes)
    degrees = packed.degrees()
    keys = zipf_nodes(64, ds.num_nodes, SKEW, rng=np.random.default_rng(23))
    key_degrees = degrees[keys]
    cut = fixed._RUN_MIN_FIELDS
    assert key_degrees.max() >= cut  # the batch holds a hub row
    gathered, kernel = [], fixed._load_fields
    with monkeypatch.context() as mp:
        mp.setattr(fixed, "_load_fields",
                   lambda buf, bitpos, *a: gathered.append(bitpos.shape[0]) or kernel(buf, bitpos, *a))
        flat, offsets = packed.neighbors_batch(keys)
    csr = open_store("csr-serial", ds.sources, ds.destinations, ds.num_nodes)
    want = csr.neighbors_batch(keys)
    assert np.array_equal(flat, want[0]) and np.array_equal(offsets, want[1])
    # two offset fields per key, then every field of the short rows
    expected = 2 * keys.shape[0] + int(key_degrees[key_degrees < cut].sum())
    decoded = 2 * keys.shape[0] + int(key_degrees.sum())

    hub = int(np.argmax(degrees))
    start, count = [packed.offset(hub)], [int(degrees[hub])]
    row = lambda: fixed.unpack_fields_gather(packed.columns, packed.column_width, start, count)
    best = {"routed": float("inf"), "gather": float("inf")}
    with monkeypatch.context() as mp:
        for _ in range(20):  # the regimes take turns, so a slow spell hits both
            for regime, limit in (("routed", cut), ("gather", float("inf"))):
                mp.setattr(fixed, "_RUN_MIN_FIELDS", limit)
                best[regime] = min(best[regime], _best_of(row, repeats=20)[0])
        assert np.array_equal(row()[0], packed.neighbors(hub))
    t_routed, t_gather = best["routed"], best["gather"]
    ratio = t_gather / t_routed

    section = {
        "fixed_gather_fields_per_packed_batch": {
            "value": sum(gathered),
            "gate": f"== {expected} (exact; {decoded} if every field were gathered)",
            "domain": "count"},
        "fixed_long_row_gather_vs_routed_decode_ratio": {
            "value": ratio, "gate": f">= {LONG_ROW_FLOOR}", "domain": "wall"},
    }
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"fixed_read_path": section})
    report(
        "Fixed-width read path (packed pokec stand-in)",
        render_table(
            ["figure", "value", "gate", "domain"],
            [[name, f"{entry['value']:.3g}", entry["gate"], entry["domain"]]
             for name, entry in section.items()],
            title=(f"64 Zipf({SKEW}) keys, {decoded} fields decoded; longest row "
                   f"{count[0]} fields: gather {t_gather * 1e6:.1f} us, "
                   f"routed {t_routed * 1e6:.1f} us"),
        ),
    )
    assert sum(gathered) == expected
    assert ratio >= LONG_ROW_FLOOR


def test_ordering_codec_sweep(medium_standin):
    """Bits/edge for every ordering x codec-candidate set — the
    EXPERIMENTS.md table quantifying what each half of the pipeline
    buys on its own."""
    ds = medium_standin
    edges = (ds.sources, ds.destinations, ds.num_nodes)
    packed = open_store("packed", *edges)
    candidate_sets = [
        ("fixed", ("fixed",)),
        ("varint", ("varint",)),
        ("auto", "auto"),
        ("auto+zeta", ("fixed", "varint", "zeta2", "zeta3", "zeta4")),
    ]
    rows = []
    for order in ("natural", "degree", "bfs", "slashburn"):
        row = [order]
        for _, codecs in candidate_sets:
            store = open_store(
                "reordered", *edges, order=order, inner="compact",
                codecs=codecs,
            )
            row.append(f"{store.bits_per_edge():.2f}")
        rows.append(row)
    report(
        "Compact pipeline sweep: bits/edge by ordering x codec candidates "
        f"(pokec stand-in; packed fixed = {packed.bits_per_edge():.2f})",
        render_table(
            ["ordering"] + [label for label, _ in candidate_sets], rows
        ),
    )
    assert len(rows) == 4
