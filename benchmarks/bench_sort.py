"""Input-contract ablation — what if the edge list is NOT pre-sorted?

Table II assumes the paper's standing input contract ("we assume that
the datasets are sorted").  This bench re-runs the pipeline on shuffled
input with the chunked sample sort bolted on (``sort=True``) and
checks that (a) the full pipeline still scales and (b) the sort's
share of the total is visible and bounded — i.e. the contract is a
constant-factor convenience, not a hidden cliff.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.tables import render_series
from repro import open_store
from repro.parallel import SerialExecutor, SimulatedMachine
from repro.parallel.sort import parallel_sort

from conftest import baseline_record, report

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_sort.json"
# raw (shuffled, ``sort=True``) over pre-sorted packed build, wall clock.
# 45x when the sort was an argsort per chunk plus a lexsort per bucket;
# ~3x now that an unweighted build sorts fused keys by value.
RAW_BUILD_CEILING = 6.0


@pytest.fixture(scope="module")
def shuffled(medium_standin):
    rng = np.random.default_rng(61)
    order = rng.permutation(medium_standin.num_edges)
    return (
        medium_standin.sources[order],
        medium_standin.destinations[order],
        medium_standin.num_nodes,
    )


def test_parallel_sort_wallclock(benchmark, shuffled):
    src, dst, n = shuffled
    keys = (src.astype(np.uint64) << np.uint64(32)) | dst.astype(np.uint64)
    out = benchmark(parallel_sort, keys, SerialExecutor())
    assert out.shape == keys.shape


def test_build_with_sort_wallclock(benchmark, shuffled):
    src, dst, n = shuffled
    packed = benchmark.pedantic(
        open_store,
        args=("packed", src, dst, n),
        kwargs={"sort": True},
        rounds=3,
        iterations=1,
    )
    assert packed.num_edges == len(src)


def _best_of(fn, repeats: int = 7) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_raw_input_build_gate(medium_standin, shuffled):
    """Dropping the input contract costs a small constant factor in
    wall clock too: one key sort plus a split, not a second sort."""
    ds = medium_standin
    ssrc, sdst, n = shuffled
    raw = open_store("packed", ssrc, sdst, n, sort=True)
    pre = open_store("packed", ds.sources, ds.destinations, n)
    assert np.array_equal(raw.columns.buffer, pre.columns.buffer)
    assert np.array_equal(raw.offsets.buffer, pre.offsets.buffer)
    t_pre = _best_of(lambda: open_store("packed", ds.sources, ds.destinations, n))
    t_raw = _best_of(lambda: open_store("packed", ssrc, sdst, n, sort=True))
    ratio = t_raw / t_pre
    baseline = {
        "graph": {"nodes": int(n), "edges": int(len(ssrc))},
        "sorted_build_s": t_pre,
        "raw_build_s": t_raw,
        "raw_vs_sorted_build_ratio": {
            "value": ratio,
            "gate": f"<= {RAW_BUILD_CEILING}",
            "domain": "wall",
        },
    }
    # refresh the committed baseline only on request — a plain test run
    # must not dirty the working tree with this machine's numbers
    if os.environ.get("BENCH_WRITE_BASELINE") or not BASELINE_PATH.exists():
        baseline_record(
            BASELINE_PATH, baseline, name="sort",
            gate=f"raw-input packed build <= {RAW_BUILD_CEILING}x the pre-sorted build (wall)",
            measured=ratio,
        )
    report(
        "Input-contract ablation: packed build, wall clock (best of 7)",
        f"pre-sorted {t_pre * 1e3:.1f} ms, raw + sort {t_raw * 1e3:.1f} ms: "
        f"{ratio:.2f}x (gate <= {RAW_BUILD_CEILING}x, domain: wall)",
    )
    assert ratio <= RAW_BUILD_CEILING


def test_sorted_vs_unsorted_scaling_report(benchmark, medium_standin, shuffled):
    ds = medium_standin
    ssrc, sdst, n = shuffled

    def sweep():
        series = {"pre-sorted (paper contract)": {}, "raw + parallel sort": {}}
        for p in (1, 4, 16, 64):
            m = SimulatedMachine(p)
            open_store("packed", ds.sources, ds.destinations, ds.num_nodes, executor=m)
            series["pre-sorted (paper contract)"][p] = m.elapsed_ms()
            m = SimulatedMachine(p)
            open_store("packed", ssrc, sdst, n, executor=m, sort=True)
            series["raw + parallel sort"][p] = m.elapsed_ms()
        return series

    series = benchmark.pedantic(sweep, rounds=1, iterations=1)
    pre = series["pre-sorted (paper contract)"]
    raw = series["raw + parallel sort"]
    for p in (1, 4, 16, 64):
        assert raw[p] > pre[p]  # sorting is never free
        assert raw[p] < 6 * pre[p]  # ...but stays a constant factor
    # the combined pipeline must still scale
    assert raw[64] < raw[1] / 5
    report(
        "Input-contract ablation: pipeline time (simulated ms) with and "
        "without the pre-sorted assumption",
        render_series("packed-CSR build on pokec stand-in", series),
    )
