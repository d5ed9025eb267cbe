"""Section VI claim — "the edge list consumes more time in querying
compared to CSR".

Query latency and memory across every store on one stand-in graph; the
unsorted edge list's linear scans are the paper's slow case.
"""

import time

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro import open_store
from repro.utils import human_bytes

from conftest import report

N_QUERIES = 500


@pytest.fixture(scope="module")
def small_graph():
    from repro.datasets import standin

    ds = standin("webnotredame", scale=1 / 10, seed=31)
    return ds


@pytest.fixture(scope="module")
def all_stores(small_graph):
    ds = small_graph
    args = (ds.sources, ds.destinations, ds.num_nodes)
    return {
        "csr": open_store("csr-serial", *args),
        "bitpacked-csr": open_store("packed", *args),
        "edgelist-sorted": open_store("edgelist", *args),
        "edgelist-raw": open_store("edgelist-unsorted", *args),
        "adjlist": open_store("adjlist", *args),
    }


@pytest.fixture(scope="module")
def queries(small_graph):
    rng = np.random.default_rng(37)
    n = small_graph.num_nodes
    qs = [
        (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(N_QUERIES)
    ]
    # plant real edges in half the batch so the hit column is non-trivial
    picks = rng.integers(0, small_graph.num_edges, N_QUERIES // 2)
    for slot, i in enumerate(picks.tolist()):
        qs[slot] = (int(small_graph.sources[i]), int(small_graph.destinations[i]))
    return qs


@pytest.mark.parametrize(
    "store_name",
    ["csr", "bitpacked-csr", "edgelist-sorted", "edgelist-raw", "adjlist"],
)
def test_has_edge_wallclock(benchmark, all_stores, queries, store_name):
    store = all_stores[store_name]

    def run():
        return sum(store.has_edge(u, v) for u, v in queries[:100])

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_store_comparison_report(benchmark, all_stores, queries):
    def measure():
        rows = []
        latency = {}
        for name, store in all_stores.items():
            start = time.perf_counter()
            answers = [store.has_edge(u, v) for u, v in queries]
            per_query_us = (time.perf_counter() - start) / N_QUERIES * 1e6
            latency[name] = per_query_us
            rows.append(
                [name, human_bytes(store.memory_bytes()), per_query_us, sum(answers)]
            )
        return rows, latency

    rows, latency = benchmark.pedantic(measure, rounds=1, iterations=1)
    # every store answered identically (hits column equal)
    hits = {row[3] for row in rows}
    assert len(hits) == 1
    # the paper's claim: raw edge-list scans lose to CSR by a wide margin
    assert latency["edgelist-raw"] > 3 * latency["csr"]
    report(
        "Store comparison: memory and has_edge latency",
        render_table(["store", "bytes", "us/query", "hits"], rows),
    )
