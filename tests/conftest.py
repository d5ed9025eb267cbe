"""Shared fixtures: deterministic RNG, executor matrix, graph factories.

``executor`` parametrises most correctness tests across the serial
executor, simulated machines of several widths, and a real thread
pool, so every kernel is exercised under every execution regime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitpack import fixed
from repro.csr import BitPackedCSR, CSRGraph
from repro.csr.builder import ensure_sorted
from repro.parallel import SerialExecutor, SimulatedMachine, ThreadExecutor
from repro.query import edges as edge_kernel
from repro.query.stores import neighbors_batch

EXECUTOR_SPECS = [
    ("serial", lambda: SerialExecutor()),
    ("sim-p1", lambda: SimulatedMachine(1)),
    ("sim-p2", lambda: SimulatedMachine(2)),
    ("sim-p3", lambda: SimulatedMachine(3)),
    ("sim-p7", lambda: SimulatedMachine(7)),
    ("sim-p64", lambda: SimulatedMachine(64)),
    ("threads-p4", lambda: ThreadExecutor(4)),
]


class CountingStore:
    """Store proxy for read-counting tests: forwards everything and
    records the key array of every ``neighbors_batch`` call."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def neighbors_batch(self, unodes):
        self.calls.append(np.asarray(unodes).copy())
        return self._inner.neighbors_batch(unodes)


def rows_sorted(store) -> bool:
    """Whether every row of *store* is non-decreasing — the invariant
    every builder enforces.  A descent in the whole-graph read is legal
    only where a row starts."""
    flat, offsets = neighbors_batch(store, np.arange(store.num_nodes, dtype=np.int64))
    descents = np.flatnonzero(flat[1:] < flat[:-1]) + 1
    return bool(np.isin(descents, offsets).all())


#: where a saved file of each ``.npz`` kind keeps its first stored store
LEAF_PREFIX = {"packed": "", "compact": "", "sharded": "shard0_",
               "reordered": "inner_", "lsm": "segment0_"}


def rewrite_npz(path, **changes) -> None:
    """Rewrite the saved ``.npz`` at *path* with *changes* applied to
    its arrays (a ``None`` value drops the key)."""
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    payload.update(changes)
    np.savez(path, **{k: v for k, v in payload.items() if v is not None})


def unsorted_leaf_payload(prefix: str = "") -> dict:
    """The packed payload, under *prefix*, of a 6-node graph whose row 0
    is ``[5, 3]`` — what an unchecked build could once write."""
    graph = CSRGraph([0, 2, 3, 3, 3, 3, 3], [5, 3, 2], validate=False)
    return BitPackedCSR.from_csr(graph).npz_payload(prefix=prefix)


@pytest.fixture(params=EXECUTOR_SPECS, ids=[name for name, _ in EXECUTOR_SPECS])
def executor(request):
    name, factory = request.param
    ex = factory()
    yield ex
    if isinstance(ex, ThreadExecutor):
        ex.shutdown()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture(params=["strided", "gather"])
def run_regime(request, monkeypatch):
    """Force every run of ``unpack_fields_gather`` through the strided
    kernel (``_RUN_MIN_FIELDS`` = 0) or through the word-load gather
    (``_RUN_MIN_FIELDS`` = infinity); yields the regime's name."""
    limit = 0 if request.param == "strided" else float("inf")
    monkeypatch.setattr(fixed, "_RUN_MIN_FIELDS", limit)
    return request.param


@pytest.fixture(params=["each", "keyed"])
def chunk_regime(request, monkeypatch):
    """Force every edge-kernel chunk through the per-probe search
    (``_SMALL_CHUNK`` = infinity) or through the keyed payload
    (``_SMALL_CHUNK`` = 0); yields the regime's name."""
    limit = float("inf") if request.param == "each" else 0
    monkeypatch.setattr(edge_kernel, "_SMALL_CHUNK", limit)
    return request.param


@pytest.fixture
def sorted_edges(rng):
    """A medium random multigraph edge list, sorted by (u, v)."""
    n, m = 200, 3000
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    src, dst = ensure_sorted(src, dst)
    return src, dst, n


@pytest.fixture
def tiny_graph():
    """The paper's Table I example graph (10 nodes, upper+lower)."""
    dense = np.zeros((10, 10), dtype=np.int64)
    edges = [
        (0, 5), (1, 6), (1, 7), (2, 7), (3, 8), (3, 9), (4, 9),
        (5, 0), (6, 1), (7, 1), (7, 2), (8, 2), (8, 3), (9, 3),
    ]
    for u, v in edges:
        dense[u, v] = 1
    return dense
