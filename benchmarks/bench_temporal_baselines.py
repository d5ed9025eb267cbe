"""Related-work ablation — TCSR vs the log-structured baselines [21].

The paper's criticism of log formats is that "the log must be scanned
sequentially ... slow for large time-evolving graphs".  This bench
measures point-query latency and storage for TCSR, EveLog, and EdgeLog
on the same churn stream.
"""

import time

import numpy as np
import pytest

from repro.analysis.tables import render_table
from repro.temporal import EdgeLog, EveLog, build_tcsr
from repro.utils import human_bytes

from conftest import report

N_QUERIES = 300


@pytest.fixture(scope="module")
def temporal_stores(event_stream):
    return {
        "tcsr": build_tcsr(event_stream),
        "evelog": EveLog(event_stream),
        "edgelog": EdgeLog(event_stream),
    }


@pytest.fixture(scope="module")
def point_queries(event_stream):
    rng = np.random.default_rng(17)
    return [
        (
            int(rng.integers(0, event_stream.num_nodes)),
            int(rng.integers(0, event_stream.num_nodes)),
            int(rng.integers(0, event_stream.num_frames)),
        )
        for _ in range(N_QUERIES)
    ]


@pytest.mark.parametrize("store_name", ["tcsr", "evelog", "edgelog"])
def test_edge_active_wallclock(benchmark, temporal_stores, point_queries, store_name):
    store = temporal_stores[store_name]

    def run():
        return [store.edge_active(u, v, f) for u, v, f in point_queries]

    out = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(out) == N_QUERIES


def test_temporal_store_comparison_report(benchmark, temporal_stores, point_queries):
    def measure():
        rows = []
        answers = {}
        for name, store in temporal_stores.items():
            start = time.perf_counter()
            answers[name] = [store.edge_active(u, v, f) for u, v, f in point_queries]
            elapsed_us = (time.perf_counter() - start) / N_QUERIES * 1e6
            rows.append([name, human_bytes(store.memory_bytes()), elapsed_us])
        return rows, answers

    rows, answers = benchmark.pedantic(measure, rounds=1, iterations=1)
    # all stores must agree before any speed claims count
    assert answers["tcsr"] == answers["evelog"] == answers["edgelog"]
    report(
        "Temporal baselines: storage and point-query latency",
        render_table(["store", "bytes", "us/query"], rows),
    )
