"""End-to-end pipelines: dataset → build → pack → query → verify.

These cross every subsystem boundary at once, on every executor, with
networkx as the independent referee.
"""

import networkx as nx
import numpy as np
import pytest

from repro.baselines import EdgeListStore
from repro.csr import (
    BitPackedCSR,
    bfs_levels,
    build_bitpacked_csr,
    build_csr,
    build_csr_serial,
)
from repro.csr.io import read_edge_list, write_edge_list
from repro.datasets import churn_events, standin
from repro.parallel import SimulatedMachine
from repro.query import QueryEngine
from repro.temporal import EveLog, EdgeLog, build_tcsr


class TestStaticPipeline:
    def test_standin_to_queries(self, executor, rng):
        ds = standin("webnotredame", scale=1 / 400, seed=9)
        packed = build_bitpacked_csr(ds.sources, ds.destinations, ds.num_nodes, executor)
        ref = build_csr_serial(ds.sources, ds.destinations, ds.num_nodes)
        engine = QueryEngine(packed, executor)

        nodes = rng.integers(0, ds.num_nodes, 30)
        for u, row in zip(nodes.tolist(), engine.neighbors(nodes)):
            assert np.asarray(row, np.int64).tolist() == ref.neighbors(u).tolist()

        qs = np.stack(
            [rng.integers(0, ds.num_nodes, 50), rng.integers(0, ds.num_nodes, 50)],
            axis=1,
        )
        got = engine.has_edges(qs, method="bisect")
        want = [ref.has_edge(int(u), int(v)) for u, v in qs]
        assert got.tolist() == want

    def test_file_roundtrip_to_networkx(self, tmp_path, rng):
        ds = standin("pokec", scale=1 / 3000, seed=11)
        path = tmp_path / "edges.txt"
        write_edge_list(path, ds.sources, ds.destinations)
        src, dst, n = read_edge_list(path)
        graph = build_csr(src, dst, max(n, ds.num_nodes), SimulatedMachine(4), sort=True)

        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(graph.num_nodes))
        nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
        # spot-check structure against networkx
        for u in range(0, graph.num_nodes, 37):
            assert set(graph.neighbors(u).tolist()) == set(nxg.successors(u))

    def test_bfs_on_packed_graph_decoded(self, rng):
        ds = standin("webnotredame", scale=1 / 800, seed=3)
        packed = build_bitpacked_csr(ds.sources, ds.destinations, ds.num_nodes)
        graph = packed.to_csr()
        nxg = graph.to_networkx()
        src_node = int(ds.sources[0])
        want = nx.single_source_shortest_path_length(nxg, src_node)
        got = bfs_levels(graph, src_node, SimulatedMachine(8))
        for node in range(graph.num_nodes):
            assert got[node] == want.get(node, -1)

    def test_compression_pipeline_shrinks(self):
        ds = standin("orkut", scale=1 / 2000, seed=5)
        from repro.csr.io import edge_list_text_size

        packed = build_bitpacked_csr(ds.sources, ds.destinations, ds.num_nodes)
        el = EdgeListStore(ds.sources, ds.destinations, ds.num_nodes)
        text_bytes = edge_list_text_size(ds.sources, ds.destinations)
        # packed CSR beats both the in-memory edge-list store and the
        # on-disk text form — Table II's size comparison
        assert packed.memory_bytes() < text_bytes
        assert packed.memory_bytes() < el.memory_bytes()
        assert packed.memory_bytes() * 4 < text_bytes


class TestTemporalPipeline:
    def test_churn_to_all_stores(self, executor, rng):
        ev = churn_events(
            80, 400, 8, add_per_frame=60, delete_per_frame=40,
            rng=np.random.default_rng(13),
        )
        tcsr = build_tcsr(ev, executor)
        evelog = EveLog(ev)
        edgelog = EdgeLog(ev)
        qs = [
            (
                int(rng.integers(0, ev.num_nodes)),
                int(rng.integers(0, ev.num_nodes)),
                int(rng.integers(0, ev.num_frames)),
            )
            for _ in range(60)
        ]
        # TCSR through the engine, one batch per frame; the logs scalar
        a = np.zeros(len(qs), dtype=bool)
        for f in range(ev.num_frames):
            at_f = [i for i, q in enumerate(qs) if q[2] == f]
            if at_f:
                pairs = [qs[i][:2] for i in at_f]
                a[at_f] = QueryEngine(tcsr.at(f), executor).has_edges(pairs, method="bisect")
        b = [evelog.edge_active(u, v, f) for u, v, f in qs]
        c = [edgelog.edge_active(u, v, f) for u, v, f in qs]
        assert a.tolist() == b == c
        # and all three agree with the brute-force oracle
        for (u, v, f), r in zip(qs, a):
            assert r == ((u << 32 | v) in set(ev.active_keys_at(f).tolist()))

    def test_snapshot_round_trips_through_packed_csr(self, rng):
        ev = churn_events(
            60, 300, 6, add_per_frame=50, delete_per_frame=30,
            rng=np.random.default_rng(17),
        )
        tcsr = build_tcsr(ev, SimulatedMachine(4))
        last = ev.num_frames - 1
        snap = tcsr.snapshot(last)
        repacked = BitPackedCSR.from_csr(snap)
        assert repacked.to_csr() == snap
