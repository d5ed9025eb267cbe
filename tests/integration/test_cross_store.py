"""Cross-store equivalence: one property, every representation.

Any graph representation in this library must answer the Section V
queries identically.  This suite generates random graphs and drives
every static store — uncompressed CSR, bit-packed (plain and gap),
and all baselines — through the same QueryEngine, then does the same
across every temporal store and every frame of a TCSR served as a
store.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AdjacencyListStore,
    AdjacencyMatrixStore,
    BitMatrixStore,
    EdgeListStore,
    UnsortedEdgeListStore,
)
from repro.csr import BitPackedCSR, build_csr_serial
from repro.csr.builder import ensure_sorted
from repro.parallel import SimulatedMachine
from repro.query import QueryEngine
from repro.temporal import (
    EdgeLog,
    EveLog,
    EventList,
    build_tcsr,
)


def make_simple_graph(rng, n, m):
    src, dst = ensure_sorted(rng.integers(0, n, m), rng.integers(0, n, m))
    keys = (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return src[first], dst[first]


class TestStaticStoresAgree:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 150), st.integers(0, 2**31))
    def test_every_representation_same_answers(self, n, m, seed):
        rng = np.random.default_rng(seed)
        src, dst = make_simple_graph(rng, n, m)
        csr = build_csr_serial(src, dst, n)
        stores = [
            csr,
            BitPackedCSR.from_csr(csr),
            BitPackedCSR.from_csr(csr, gap_encode=True),
            EdgeListStore(src, dst, n),
            UnsortedEdgeListStore(src, dst, n),
            AdjacencyListStore(src, dst, n),
            AdjacencyMatrixStore(src, dst, n),
            BitMatrixStore(src, dst, n),
        ]
        probe_nodes = rng.integers(0, n, 5)
        probe_edges = [
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(8)
        ]
        ref_rows = [np.unique(csr.neighbors(int(u))).tolist() for u in probe_nodes]
        ref_exists = [csr.has_edge(u, v) for u, v in probe_edges]
        for store in stores:
            engine = QueryEngine(store, SimulatedMachine(3))
            rows = engine.neighbors(probe_nodes)
            got_rows = [
                np.unique(np.asarray(r, dtype=np.int64)).tolist() for r in rows
            ]
            assert got_rows == ref_rows, type(store).__name__
            got = engine.has_edges(probe_edges).tolist()
            assert got == ref_exists, type(store).__name__


class TestTemporalStoresAgree:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(2, 16),
        st.integers(0, 80),
        st.integers(1, 5),
        st.integers(0, 2**31),
    )
    def test_all_three_temporal_stores(self, n, nev, frames, seed):
        rng = np.random.default_rng(seed)
        ev = EventList.from_triplets(
            rng.integers(0, n, nev),
            rng.integers(0, n, nev),
            rng.integers(0, frames, nev),
            n,
        )
        stores = [
            build_tcsr(ev),
            EveLog(ev),
            EdgeLog(ev),
        ]
        for f in range(ev.num_frames):
            active = set(ev.active_keys_at(f).tolist())
            for u in range(n):
                want = sorted(
                    int(k & 0xFFFFFFFF) for k in active if (k >> 32) == u
                )
                for store in stores:
                    got = sorted(store.neighbors_at(u, f).tolist())
                    assert got == want, (type(store).__name__, u, f)

    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, 16),
        st.integers(0, 80),
        st.integers(1, 5),
        st.integers(0, 2**31),
    )
    def test_tcsr_frame_through_the_engine(self, n, nev, frames, seed):
        rng = np.random.default_rng(seed)
        ev = EventList.from_triplets(
            rng.integers(0, n, nev),
            rng.integers(0, n, nev),
            rng.integers(0, frames, nev),
            n,
        )
        tcsr = build_tcsr(ev)
        nodes = np.arange(n)
        pairs = np.stack(np.meshgrid(nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 2)
        for f in range(ev.num_frames):
            active = set(ev.active_keys_at(f).tolist())
            want_rows = [
                sorted(int(k & 0xFFFFFFFF) for k in active if (k >> 32) == u)
                for u in range(n)
            ]
            want_edges = [(int(u) << 32 | int(v)) in active for u, v in pairs]
            for p in (1, 4):
                engine = QueryEngine(tcsr.at(f), SimulatedMachine(p))
                rows = [np.asarray(r, dtype=np.int64).tolist() for r in engine.neighbors(nodes)]
                assert rows == want_rows, (f, p)
                for method in ("scan", "bisect"):
                    got = engine.has_edges(pairs, method=method).tolist()
                    assert got == want_edges, (f, p, method)
                    assert engine.has_edges(pairs[:0], method=method).shape == (0,)
                assert engine.neighbors([]) == []
