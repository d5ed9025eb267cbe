#!/usr/bin/env python
"""Walk through the paper's own worked examples, end to end.

Reproduces, with this library's real code paths:

* Table I / Figure 1 — the 10-node example graph and its CSR arrays;
* Figure 2 — the chunked parallel prefix sum, phase by phase;
* Figure 3 — chunked degree computation with the temp-degree merge;
* Figure 4 — a 4-frame evolving graph stored differentially;
* the introduction's Friendster storage arithmetic.

Run:  python examples/paper_walkthrough.py
"""

import numpy as np

from repro import SimulatedMachine
from repro.analysis import render_rollup
from repro.analysis.memory import projected_dense_matrix_bytes
from repro.csr import BitPackedCSR, CSRGraph, build_bitpacked_csr
from repro.csr.degree import degree_parallel
from repro.obs import Tracer
from repro.parallel import prefix_sum_parallel
from repro.temporal import EventList, build_tcsr
from repro.utils import human_bytes

# ----------------------------------------------------------------- Table I
print("== Table I / Figure 1: the example graph as CSR ==")
dense = np.zeros((10, 10), dtype=np.int64)
for u, v in [(0, 5), (1, 6), (1, 7), (2, 7), (3, 8), (3, 9), (4, 9),
             (5, 0), (6, 1), (7, 1), (7, 2), (8, 2), (8, 3), (9, 3)]:
    dense[u, v] = 1
graph = CSRGraph.from_dense(dense)
print("iA (offsets):", graph.indptr.tolist())
print("jA (columns):", graph.indices.tolist())
packed = BitPackedCSR.from_csr(graph)
print(f"bit-packed: {packed} ({packed.bits_per_edge():.1f} bits/edge)")

# ---------------------------------------------------------------- Figure 2
print("\n== Figure 2: chunked parallel prefix sum (p=4) ==")
vec = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], dtype=np.int64)
print("input:   ", vec.tolist())
out = prefix_sum_parallel(vec, SimulatedMachine(4))
print("scanned: ", out.tolist())
assert out.tolist() == np.cumsum(vec).tolist()

# ---------------------------------------------------------------- Figure 3
print("\n== Figure 3: chunked degree computation (p=4) ==")
sources = np.array([0, 0, 0, 1, 1, 1, 1, 2, 3, 3, 4, 5, 5, 5, 5, 5])
machine = SimulatedMachine(4)
deg = degree_parallel(sources, 6, machine)
print("sorted sources:", sources.tolist())
print("degree array:  ", deg.tolist())
assert deg.tolist() == np.bincount(sources, minlength=6).tolist()

# ---------------------------------------------------------------- Figure 4
print("\n== Figure 4: a graph evolving over 4 time-frames ==")
# frame 0: edges (0,1), (1,2); frame 1: +(2,3); frame 2: -(0,1); frame 3: +(0,1)
events = EventList.from_triplets(
    [0, 1, 2, 0, 0], [1, 2, 3, 1, 1], [0, 0, 1, 2, 3], 4
)
tcsr = build_tcsr(events)
for f in range(4):
    snap = tcsr.snapshot(f)
    src, dst = snap.edges()
    print(f"frame {f}: active edges {list(zip(src.tolist(), dst.tolist()))}")
print(f"stored as base + {len(tcsr.deltas)} differential frames "
      f"({human_bytes(tcsr.memory_bytes())})")

# ------------------------------------------------------------ Introduction
print("\n== Introduction: the Friendster arithmetic ==")
n_friendster = 65_608_366
as_matrix = projected_dense_matrix_bytes(n_friendster, bits_per_cell=64)
print(f"65.6M nodes as a dense 8-byte-cell matrix: "
      f"{as_matrix / 1000**5:.2f} PB (paper says 'about 30.02 Petabytes')")

# --------------------------------------------------------- trace breakdown
print("\n== Where simulated time goes (pipeline on 100k random edges) ==")
rng = np.random.default_rng(0)
src = np.sort(rng.integers(0, 10_000, 100_000))
dst = rng.integers(0, 10_000, 100_000)
dst = dst[np.lexsort((dst, src))]  # rows sorted too: the builders' input order
machine = SimulatedMachine(16)
machine.tracer = Tracer()  # no span is open: every phase is a root span
build_bitpacked_csr(src, dst, 10_000, machine)
print(render_rollup(machine.tracer.spans(),
                    title=f"p=16, total {machine.elapsed_ms():.2f} ms"))
