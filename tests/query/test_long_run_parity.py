"""Hub rows through the engine: the long-run regime changes no reply and
no charge.

``unpack_fields_gather`` decodes a run of at least ``_RUN_MIN_FIELDS``
fields with the strided kernel and gathers the rest.  A hub-heavy batch
through ``QueryEngine`` on a packed CSR must give the same replies, the
same dtypes and the same Cost per phase whether every run is strided,
every run is gathered, or the cut falls where it does in production.
"""

import numpy as np
import pytest

from repro.bitpack import fixed
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.obs import Tracer
from repro.parallel import SimulatedMachine
from repro.query import QueryEngine

REGIMES = {"strided": 0, "gather": float("inf"), "production": fixed._RUN_MIN_FIELDS}


@pytest.fixture(scope="module")
def hub_graph():
    """Three hub rows above the production cut (9k, 4k and 3.2k
    fields), one just below it, and a Zipf tail of short rows."""
    rng = np.random.default_rng(31)
    n = 20_000
    heads = np.repeat([0, 1, 2, 3], [9_000, 4_000, 3_200, fixed._RUN_MIN_FIELDS - 1])
    tail = np.minimum(rng.zipf(1.4, 20_000) + 3, n - 1)
    src = np.concatenate([heads, tail])
    dst = rng.integers(0, n, src.shape[0])
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


@pytest.fixture(scope="module")
def hub_batch(hub_graph):
    src, dst, n = hub_graph
    rng = np.random.default_rng(7)
    nodes = np.concatenate([[0, 1, 2, 3, 0, 2], rng.integers(0, n, 58)])
    rng.shuffle(nodes)
    picks = rng.integers(0, src.shape[0], 32)
    planted = np.stack([src[picks], dst[picks]], axis=1)
    probes = np.stack([rng.choice([0, 1, 2, 3, 17], 32), rng.integers(0, n, 32)], axis=1)
    return nodes, np.concatenate([planted, probes])


def _run(store, nodes, edges, p, prefetch):
    machine = SimulatedMachine(p)
    machine.tracer = Tracer()
    engine = QueryEngine(store, machine)
    if prefetch:
        rows, fetched = engine.neighbors(nodes, prefetch=np.unique(edges[:, 0]))
        exists = engine.has_edges(edges, method="bisect", rows=fetched)
    else:
        rows = engine.neighbors(nodes)
        exists = engine.has_edges(edges, method="bisect")
    phases = [(s.layer, s.name, s.cost, s.start_ns, s.end_ns, s.meta)
              for s in machine.tracer.spans()]
    return rows, exists, phases, machine.elapsed_ns()


@pytest.mark.parametrize("prefetch", [False, True], ids=["two-reads", "prefetch"])
@pytest.mark.parametrize("p", [1, 4])
def test_regimes_agree_on_replies_and_costs(hub_graph, hub_batch, p, prefetch, monkeypatch):
    src, dst, n = hub_graph
    store = BitPackedCSR.from_csr(build_csr_serial(src, dst, n))
    nodes, edges = hub_batch
    reference = build_csr_serial(src, dst, n)
    got = {}
    for name, limit in REGIMES.items():
        monkeypatch.setattr(fixed, "_RUN_MIN_FIELDS", limit)
        got[name] = _run(store, nodes, edges, p, prefetch)
    rows, exists, phases, elapsed = got.pop("production")
    assert max(int(reference.degree(u)) for u in nodes) >= fixed._RUN_MIN_FIELDS
    for u, row in zip(nodes, rows):
        assert row.dtype == np.uint64
        assert np.array_equal(row, reference.neighbors(int(u)))
    assert exists.dtype == np.bool_ and exists[:32].all()
    for other in got.values():
        assert len(other[0]) == len(rows)
        for a, b in zip(other[0], rows):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert np.array_equal(other[1], exists)
        assert other[2] == phases
        assert other[3] == elapsed
