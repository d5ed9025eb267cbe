#!/usr/bin/env python
"""Compression deep-dive: every representation of every paper graph.

For each Table II stand-in, measures the byte footprint of the raw
formats, the CSR family, and every registered codec on the column
array — then projects CSR and edge-list sizes to the published graph
scales using the closed-form memory model.

Run:  python examples/compression_report.py
"""

from repro.analysis import render_table
from repro.analysis.memory import (
    projected_dense_matrix_bytes,
    projected_edgelist_text_bytes,
    projected_packed_csr_bytes,
)
from repro.baselines import EdgeListStore
from repro.bitpack import available_codecs, get_codec, row_gaps
from repro.csr import BitPackedCSR, build_csr_serial
from repro.csr.io import edge_list_text_size
from repro.datasets import PAPER_GRAPHS, standin
from repro.utils import human_bytes

rows = []
for name in PAPER_GRAPHS:
    ds = standin(name, scale=1 / 256, seed=3)
    graph = build_csr_serial(ds.sources, ds.destinations, ds.num_nodes)
    packed = BitPackedCSR.from_csr(graph)
    gap = BitPackedCSR.from_csr(graph, gap_encode=True)
    rows.append([
        name,
        f"{ds.num_edges:,}",
        human_bytes(edge_list_text_size(ds.sources, ds.destinations)),
        human_bytes(EdgeListStore(ds.sources, ds.destinations, ds.num_nodes).memory_bytes()),
        human_bytes(graph.compact_dtypes().memory_bytes()),
        human_bytes(packed.memory_bytes()),
        human_bytes(gap.memory_bytes()),
    ])
print(render_table(
    ["graph", "edges", "text", "edge list", "CSR", "bit-packed", "gap+packed"],
    rows,
    title="Measured footprints at 1/256 scale",
))

print()
rows = []
for name, spec in PAPER_GRAPHS.items():
    n, m = spec.num_nodes, spec.num_edges
    rows.append([
        name,
        human_bytes(spec.edgelist_bytes) + " (paper)",
        human_bytes(projected_edgelist_text_bytes(n, m)),
        human_bytes(spec.csr_bytes) + " (paper)",
        human_bytes(projected_packed_csr_bytes(n, m)),
        human_bytes(projected_dense_matrix_bytes(n, bits_per_cell=1)),
    ])
print(render_table(
    ["graph", "edge list", "ours proj.", "CSR", "ours proj.", "dense bits"],
    rows,
    title="Projections at published scale (paper columns for comparison)",
))

print()
ds = standin("pokec", scale=1 / 256, seed=3)
graph = build_csr_serial(ds.sources, ds.destinations, ds.num_nodes)
gaps = row_gaps(graph.indptr, graph.indices)
rows = []
for codec_name in sorted(available_codecs()):
    codec = get_codec(codec_name)
    raw = codec.encode(graph.indices).nbits / graph.num_edges
    gapped = codec.encode(gaps).nbits / graph.num_edges
    rows.append([codec_name, f"{raw:.2f}", f"{gapped:.2f}"])
print(render_table(
    ["codec", "bits/edge (raw)", "bits/edge (gaps)"],
    rows,
    title="Column-array codecs on the pokec stand-in",
))

# -- WebGraph-style preprocessing: relabel hubs to small ids -----------
from repro.reorder import degree_order, relabel  # noqa: E402

print()
reordered = relabel(graph, degree_order(graph))
rows = []
for label, g in (("original ids", graph), ("degree-ordered ids", reordered)):
    gg = row_gaps(g.indptr, g.indices)
    cells = [label]
    for codec_name in sorted(available_codecs()):
        cells.append(f"{get_codec(codec_name).encode(gg).nbits / g.num_edges:.2f}")
    rows.append(cells)
print(render_table(
    ["node labels"] + sorted(available_codecs()),
    rows,
    title="Gap-stream bits/edge before and after degree reordering",
))
