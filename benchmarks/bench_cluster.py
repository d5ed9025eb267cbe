"""Cluster serving bench — scale-out, hedged tails, routed parity.

ISSUE 8's acceptance gates, all in virtual time (deterministic on any
host):

* **scaling** — a 10k-request Zipf workload through the scatter-gather
  router must complete at >= 1.5x the 1-worker qps when served by
  4 workers (2 shards x 2 replicas), with the scaled config's p99
  inside the declared SLO;
* **hedging** — with one replica injected 20x slow, turning on
  percentile hedging must cut open-loop p99 versus the same cluster
  without hedging;
* **parity** — routed replies are bit-exact against a monolithic
  server over the same store and workload;
* **pinned virtual figures** — the seeded 1x1 / 2x1 / 4x2 runs' qps and
  p99 are simulated time, so they equal the recorded baseline exactly
  (``domain: virtual``) until a change claims them;
* **edge-lane keyed elements** — the payload elements the edge kernel
  keys over the seeded 4x2 schedule, exact per seed (``domain:
  count``): a sub-batch of at most ``_SMALL_CHUNK`` probes searches
  each probe's own row and keys none.

The baseline is recorded in ``BENCH_cluster.json`` under
``BENCH_WRITE_BASELINE=1``.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.serving import render_cluster_report, render_load_result
from repro.analysis.tables import render_table
from repro.csr.builder import ensure_sorted
from repro.query import edges as edge_kernel
from repro.serve import (
    DONE,
    SLO,
    ManualClock,
    NeighborsRequest,
    ServerConfig,
    open_server,
    replay,
    run_open_loop,
    synthetic_workload,
)

from conftest import baseline_record, baseline_section, report

N_REQUESTS = 10_000
# a rate one worker cannot sustain (~230k qps capacity on the pokec
# stand-in) but the 4-worker layout absorbs within SLO
OFFERED_QPS = 500e3
# and one the hedged 2x2 cluster is comfortably *under*, so its tail
# comes from the injected straggler rather than queue backlog
HEDGE_OFFERED_QPS = 100e3
SLO_P99_MS = 5.0
SCALING_FLOOR = 1.5  # 4 workers must serve >= 1.5x the 1-worker qps
HEDGE_TAIL_FLOOR = 1.2  # hedged p99 must beat unhedged by >= this
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_cluster.json"


@pytest.fixture(scope="module")
def graph(medium_standin):
    ds = medium_standin
    src, dst = ensure_sorted(
        ds.sources.astype(np.int64), ds.destinations.astype(np.int64)
    )
    return src, dst, int(ds.num_nodes)


def _config(graph, **overrides):
    src, dst, n = graph
    base = dict(
        store_kind="packed",
        edges=(src, dst, n),
        cluster=True,
        max_batch_size=64,
        max_wait_ns=50_000.0,
        queue_capacity=1 << 16,
    )
    base.update(overrides)
    return ServerConfig(**base)


def _run(config, *, offered_qps=OFFERED_QPS, slo=None, slow=None):
    router = open_server(config, clock=ManualClock())
    if slow is not None:
        worker, factor = slow
        router.workers[worker].slow_factor = factor
    result = run_open_loop(
        router, n_requests=N_REQUESTS, offered_qps=offered_qps, slo=slo
    )
    return router, result


@pytest.fixture(scope="module")
def scaling_runs(graph):
    """The seeded open-loop run on each layout, once per session."""
    slo = SLO(p99_ms=SLO_P99_MS)
    return {
        (workers, replicas): _run(
            _config(graph, workers=workers, replicas=replicas), slo=slo
        )
        for workers, replicas in [(1, 1), (2, 1), (4, 2)]
    }


def test_scaling_gate(graph, medium_standin, scaling_runs):
    """The headline gate: 1 -> 4 workers scales qps >= 1.5x within SLO."""
    runs = scaling_runs
    base = runs[(1, 1)][1]
    top_router, top = runs[(4, 2)]
    scaling = top.achieved_qps / base.achieved_qps

    rows = [
        [
            f"{w} x {r}",
            f"{res.achieved_qps:,.0f}",
            f"{res.p50_ms:.3f}",
            f"{res.p99_ms:.3f}",
            f"{res.achieved_qps / base.achieved_qps:.2f}x",
        ]
        for (w, r), (_, res) in sorted(runs.items())
    ]
    report(
        f"Cluster scaling ({N_REQUESTS} Zipf requests at "
        f"{OFFERED_QPS:,.0f} offered qps)",
        render_table(
            ["workers x replicas", "qps", "p50 (ms)", "p99 (ms)", "scaling"],
            rows,
            title=f"1 -> 4 worker scaling {scaling:.2f}x "
                  f"(floor {SCALING_FLOOR}x, SLO p99 <= {SLO_P99_MS} ms)",
        ) + "\n" + render_cluster_report(top_router),
    )

    baseline = {
        "workload": (
            f"zipf(1.2), {N_REQUESTS} requests, 25% edge queries, "
            f"{OFFERED_QPS:,.0f} offered qps (virtual time)"
        ),
        "graph": (
            f"{medium_standin.name}: {graph[2]} nodes, "
            f"{graph[0].shape[0]} edges"
        ),
        "slo_p99_ms": SLO_P99_MS,
        "layouts": {
            f"{w}x{r}": {
                "qps": res.achieved_qps,
                "p50_ms": res.p50_ms,
                "p99_ms": res.p99_ms,
                "completed": res.completed,
            }
            for (w, r), (_, res) in sorted(runs.items())
        },
        "scaling_1_to_4": scaling,
    }
    if os.environ.get("BENCH_WRITE_BASELINE") or not BASELINE_PATH.exists():
        baseline_record(
            BASELINE_PATH, {"scaling": baseline}, name="cluster",
            gate=f"4-worker qps >= {SCALING_FLOOR}x 1-worker",
            measured=scaling,
        )

    for _, res in runs.values():
        assert res.requests == N_REQUESTS
        assert res.completed == N_REQUESTS
    assert top.met, f"scaled cluster broke SLO: {'; '.join(top.violations)}"
    assert scaling >= SCALING_FLOOR, (
        f"4 workers only {scaling:.2f}x the 1-worker qps"
    )


def test_virtual_figures_pinned(scaling_runs):
    """Exact gate (domain "virtual"): service time is the kernels'
    declared Cost on a seeded workload, so every layout's qps and p99
    repeat to the last bit — a change that moves one has changed what
    the cluster charges or schedules, and must claim it."""
    figures = {
        f"{w}x{r}": {"virt_qps": res.achieved_qps, "virt_p99_ms": res.p99_ms}
        for (w, r), (_, res) in sorted(scaling_runs.items())
    }
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"virtual": {
            layout: {
                name: {"value": value, "gate": f"== {value!r} (exact)",
                       "domain": "virtual"}
                for name, value in entry.items()
            }
            for layout, entry in figures.items()
        }})
    report(
        "Cluster virtual figures (exact, domain: virtual)",
        render_table(
            ["layout", "virt_qps", "virt_p99_ms"],
            [[layout, repr(e["virt_qps"]), repr(e["virt_p99_ms"])]
             for layout, e in figures.items()],
        ),
    )
    recorded = json.loads(BASELINE_PATH.read_text())["virtual"]
    for layout, entry in figures.items():
        for name, value in entry.items():
            assert recorded[layout][name]["domain"] == "virtual"
            assert value == recorded[layout][name]["value"], (layout, name)


def test_edge_lane_keyed_elements_pinned(graph, monkeypatch):
    """Exact gate (domain "count"): payload elements the edge kernel
    copies into its keyed ``searchsorted`` array over the seeded 4x2
    schedule.  The router's sub-batches hold a few probes each, which
    search their own rows; only the larger ones key their fetched rows."""
    keyed, searchable = [], edge_kernel._searchable

    def counting(*args):
        out = searchable(*args)
        keyed.append(int(out[1].sum()))  # each row's length in the payload
        return out

    monkeypatch.setattr(edge_kernel, "_searchable", counting)
    _, result = _run(_config(graph, workers=4, replicas=2),
                     slo=SLO(p99_ms=SLO_P99_MS))
    assert result.completed == N_REQUESTS
    value = sum(keyed)
    if os.environ.get("BENCH_WRITE_BASELINE") and BASELINE_PATH.exists():
        baseline_section(BASELINE_PATH, {"edge_lane": {"keyed_elements_4x2": {
            "value": value, "gate": f"== {value!r} (exact)", "domain": "count"}}})
    report(
        "Edge lane, keyed payload elements (exact, domain: count)",
        render_table(["layout", "keyed chunks", "keyed elements"],
                     [["4x2", str(len(keyed)), str(value)]]),
    )
    recorded = json.loads(BASELINE_PATH.read_text())["edge_lane"]["keyed_elements_4x2"]
    assert recorded["domain"] == "count"
    assert value == recorded["value"]


def test_hedging_cuts_tail_latency(graph):
    """One 20x-slow replica; hedging must pull p99 back down."""
    hedge_off = _config(graph, workers=2, replicas=2)
    hedge_on = _config(graph, workers=2, replicas=2,
                       hedge_percentile=60.0, hedge_min_samples=16)
    _, unhedged = _run(hedge_off, offered_qps=HEDGE_OFFERED_QPS,
                       slow=(1, 20.0))
    router, hedged = _run(hedge_on, offered_qps=HEDGE_OFFERED_QPS,
                          slow=(1, 20.0))

    assert unhedged.completed == hedged.completed == N_REQUESTS
    assert router.hedges_launched > 0
    assert router.duplicate_completions > 0  # losers dropped, counted
    improvement = unhedged.p99_ms / hedged.p99_ms

    report(
        "Hedging under one 20x-slow replica (2 shards-equivalent load, "
        "p60 deadline)",
        render_table(
            ["mode", "qps", "p50 (ms)", "p99 (ms)"],
            [
                ["no hedging", f"{unhedged.achieved_qps:,.0f}",
                 f"{unhedged.p50_ms:.3f}", f"{unhedged.p99_ms:.3f}"],
                ["hedge @ p60", f"{hedged.achieved_qps:,.0f}",
                 f"{hedged.p50_ms:.3f}", f"{hedged.p99_ms:.3f}"],
            ],
            title=f"hedged p99 improvement {improvement:.2f}x "
                  f"(floor {HEDGE_TAIL_FLOOR}x)",
        ) + "\n" + render_load_result(hedged, title="hedged run"),
    )

    baseline = {
        "slow_factor": 20.0,
        "hedge_percentile": 60.0,
        "unhedged_p99_ms": unhedged.p99_ms,
        "hedged_p99_ms": hedged.p99_ms,
        "improvement": improvement,
        "hedges_launched": router.hedges_launched,
        "duplicate_completions": router.duplicate_completions,
    }
    if os.environ.get("BENCH_WRITE_BASELINE") or not BASELINE_PATH.exists():
        baseline_record(
            BASELINE_PATH, {"hedging": baseline}, name="cluster",
            gate=f"hedged p99 >= {HEDGE_TAIL_FLOOR}x better than unhedged",
            measured=improvement,
        )

    assert improvement >= HEDGE_TAIL_FLOOR, (
        f"hedging improved p99 only {improvement:.2f}x"
    )


def test_routed_replies_bit_exact_vs_monolithic(graph):
    """Routed scatter-gather equals a monolithic server, reply by reply."""
    src, dst, n = graph

    def workload(seed=99):
        return synthetic_workload(
            2_000, n, kind="zipf", skew=1.2, edge_fraction=0.25,
            mean_interarrival_ns=1_000.0, seed=seed,
        )

    mono = open_server(
        ServerConfig(store_kind="packed", edges=(src, dst, n),
                     max_batch_size=64, max_wait_ns=50_000.0,
                     queue_capacity=1 << 16),
        clock=ManualClock(),
    )
    router = open_server(_config(graph, workers=4, replicas=2),
                         clock=ManualClock())
    mono_slots = replay(mono, workload())
    routed_slots = replay(router, workload())
    assert len(mono_slots) == len(routed_slots) == 2_000
    mismatches = 0
    for a, b in zip(mono_slots, routed_slots):
        assert a.status == DONE and b.status == DONE
        if isinstance(a.request, NeighborsRequest):
            same = (
                a.result().dtype == b.result().dtype
                and np.array_equal(a.result(), b.result())
            )
        else:
            same = a.result() == b.result()
        mismatches += not same
    assert mismatches == 0, f"{mismatches} routed replies differ"
