"""Batch-vs-scalar parity for the vectorized query path.

The batched kernels (gather row decode, vectorized edge membership)
must return results *identical* — same values, same dtype — to per-row
scalar calls, across every store representation and every executor,
and must charge the simulated machine exactly the same cost.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import AdjacencyListStore, EdgeListStore
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.parallel import SerialExecutor, SimulatedMachine
from repro.parallel.chunking import chunk_bounds
from repro.parallel.cost import Cost
from repro.query import batch_edge_existence, batch_neighbors, neighbors_batch
from repro.query.edges import _membership
from repro.query.stores import row_decode_cost

STORE_BUILDERS = {
    "csr": lambda src, dst, n: build_csr_serial(src, dst, n),
    "packed": lambda src, dst, n: BitPackedCSR.from_csr(build_csr_serial(src, dst, n)),
    "gap": lambda src, dst, n: BitPackedCSR.from_csr(
        build_csr_serial(src, dst, n), gap_encode=True
    ),
    "adjlist": AdjacencyListStore,
    "edgelist": EdgeListStore,
}

EXECUTORS = [
    ("serial", lambda: SerialExecutor()),
    ("sim-p1", lambda: SimulatedMachine(1)),
    ("sim-p4", lambda: SimulatedMachine(4)),
    ("sim-p16", lambda: SimulatedMachine(16)),
]


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(0, 80))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m).map(
            lambda xs: np.asarray(xs, dtype=np.int64)
        )
    )
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("store_name", sorted(STORE_BUILDERS))
def test_neighbors_batch_bit_exact(store_name, data, edges):
    """The (flat, offsets) bulk fetch equals per-row neighbors() calls."""
    src, dst, n = edges
    store = STORE_BUILDERS[store_name](src, dst, n)
    k = data.draw(st.integers(0, 30))
    us = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
        dtype=np.int64,
    )
    flat, offs = neighbors_batch(store, us)
    assert offs.shape == (k + 1,)
    assert int(offs[0]) == 0
    for i, u in enumerate(us.tolist()):
        row = store.neighbors(u)
        got = flat[offs[i] : offs[i + 1]]
        assert got.dtype == row.dtype
        assert np.array_equal(got, row)


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("exec_name,make_executor", EXECUTORS, ids=[e[0] for e in EXECUTORS])
@pytest.mark.parametrize("store_name", sorted(STORE_BUILDERS))
def test_batch_neighbors_bit_exact(store_name, exec_name, make_executor, data, edges):
    """Algorithm 6 through the batch path equals the scalar per-row path."""
    src, dst, n = edges
    store = STORE_BUILDERS[store_name](src, dst, n)
    k = data.draw(st.integers(0, 40))
    us = np.asarray(
        data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)),
        dtype=np.int64,
    )
    got = batch_neighbors(store, us, make_executor())
    assert len(got) == k
    for u, row in zip(us.tolist(), got):
        want = store.neighbors(u)
        assert row.dtype == want.dtype
        assert np.array_equal(row, want)


@settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(data=st.data(), edges=edge_lists())
@pytest.mark.parametrize("method", ["scan", "bisect"])
@pytest.mark.parametrize("exec_name,make_executor", EXECUTORS, ids=[e[0] for e in EXECUTORS])
@pytest.mark.parametrize("store_name", sorted(STORE_BUILDERS))
def test_batch_edges_bit_exact(
    store_name, exec_name, make_executor, method, data, edges
):
    """Algorithm 7's vectorized membership equals per-query has_edge."""
    src, dst, n = edges
    store = STORE_BUILDERS[store_name](src, dst, n)
    k = data.draw(st.integers(0, 40))
    qs = np.asarray(
        data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                min_size=k,
                max_size=k,
            )
        ),
        dtype=np.int64,
    ).reshape(k, 2)
    got = batch_edge_existence(store, qs, make_executor(), method=method)
    want = np.array([store.has_edge(int(u), int(v)) for u, v in qs], dtype=bool)
    assert got.dtype == np.bool_
    assert np.array_equal(got, want)


class TestCostParity:
    """The batch kernels charge the simulated machine exactly what the
    per-query scalar loop would have charged — Cost semantics are part
    of the reproduction contract."""

    @pytest.fixture()
    def store_matrix(self, sorted_edges):
        src, dst, n = sorted_edges
        g = build_csr_serial(src, dst, n)
        return {
            "csr": g,
            "packed": BitPackedCSR.from_csr(g),
            "gap": BitPackedCSR.from_csr(g, gap_encode=True),
        }

    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("store_name", ["csr", "packed", "gap"])
    def test_neighbors_cost(self, store_matrix, store_name, rng, p):
        store = store_matrix[store_name]
        us = rng.integers(0, store.num_nodes, 200)
        machine = SimulatedMachine(p)
        batch_neighbors(store, us, machine)
        reference = SimulatedMachine(p)
        bounds = chunk_bounds(us.shape[0], p)

        def scalar_chunk(cid):
            def task(ctx):
                s, e = int(bounds[cid]), int(bounds[cid + 1])
                decode = 0.0
                for i in range(s, e):
                    row = store.neighbors(int(us[i]))
                    decode += row_decode_cost(store, row.shape[0])
                ctx.charge(Cost(reads=e - s, writes=e - s, bit_ops=decode))

            return task

        reference.parallel(
            [scalar_chunk(c) for c in range(p)], label="query:neighbors"
        )
        assert machine.elapsed_ns() == reference.elapsed_ns()

    @pytest.mark.parametrize("method", ["scan", "bisect"])
    @pytest.mark.parametrize("p", [1, 4, 16])
    @pytest.mark.parametrize("store_name", ["csr", "packed", "gap"])
    def test_edges_cost(self, store_matrix, store_name, rng, p, method):
        store = store_matrix[store_name]
        n = store.num_nodes
        qs = np.stack([rng.integers(0, n, 200), rng.integers(0, n, 200)], axis=1)
        machine = SimulatedMachine(p)
        batch_edge_existence(store, qs, machine, method=method)
        reference = SimulatedMachine(p)
        bounds = chunk_bounds(qs.shape[0], p)

        def scalar_chunk(cid):
            def task(ctx):
                s, e = int(bounds[cid]), int(bounds[cid + 1])
                decode = 0.0
                inspected = 0
                for i in range(s, e):
                    u, v = int(qs[i, 0]), int(qs[i, 1])
                    row = store.neighbors(u)
                    decode += row_decode_cost(store, row.shape[0])
                    _, steps = _membership(row, v, method)
                    inspected += steps
                ctx.charge(
                    Cost(
                        reads=2 * (e - s) + inspected,
                        writes=e - s,
                        bit_ops=decode,
                    )
                )

            return task

        reference.parallel(
            [scalar_chunk(c) for c in range(p)], label=f"query:edges-{method}"
        )
        assert machine.elapsed_ns() == reference.elapsed_ns()
