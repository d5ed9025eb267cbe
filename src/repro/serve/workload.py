"""Deterministic open-loop workload generation and replay.

Social-network read traffic is heavily skewed — Log(Graph)-style
evaluations and the paper's own query section both assume a few
celebrity nodes absorb most lookups — so the serving benches need a
workload whose *popularity* (Zipf or uniform), *mix* (neighbour vs
edge queries), and *arrival schedule* (exponential interarrivals at a
configurable rate) are all seeded and reproducible: the same seed
yields byte-identical request streams on every host.

:func:`synthetic_workload` builds the schedule as a list of
``(arrival_ns, request)`` pairs; :func:`replay` drives either front
door through it on a :class:`~repro.serve.request.ManualClock`, making
the arrival schedule the timebase so queueing behaviour (batch
closures, wait times, latency percentiles) is exactly reproducible.
"""

from __future__ import annotations

import numpy as np

from ..utils import require
from .request import (
    EdgeRequest,
    ManualClock,
    NeighborsRequest,
    Request,
    WriteRequest,
)

__all__ = ["synthetic_workload", "zipf_nodes", "replay"]


def zipf_nodes(count: int, num_nodes: int, skew: float,
               rng: np.random.Generator) -> np.ndarray:
    """*count* node ids under a Zipf(*skew*) popularity law.

    Rank ``r`` of the Zipf draw maps to node id ``r`` (clipped into
    range), so low-numbered nodes are the celebrities — matching the
    row-cache benches' convention.  ``skew`` must exceed 1 (the
    distribution is not normalisable at 1).
    """
    require(skew > 1.0, "zipf skew must be > 1")
    require(num_nodes >= 1, "need at least one node")
    return np.minimum(rng.zipf(skew, count) - 1, num_nodes - 1).astype(np.int64)


def synthetic_workload(
    n_requests: int,
    num_nodes: int,
    *,
    kind: str = "zipf",
    skew: float = 1.2,
    edge_fraction: float = 0.25,
    mean_interarrival_ns: float = 1_000.0,
    edges: tuple[np.ndarray, np.ndarray] | None = None,
    seed: int = 2023,
    write_fraction: float = 0.0,
    delete_fraction: float = 0.2,
) -> list[tuple[float, Request]]:
    """A seeded open-loop request schedule: ``[(arrival_ns, request)]``.

    Parameters
    ----------
    kind:
        ``"zipf"`` (skewed popularity) or ``"uniform"``.
    edge_fraction:
        Share of requests that are edge-existence checks; the rest are
        neighbourhood lookups.
    mean_interarrival_ns:
        Mean of the exponential interarrival gaps (Poisson arrivals);
        ``0`` puts every arrival at t=0 (closed-batch stress feed).
    edges:
        Optional ``(src, dst)`` arrays of real edges; when given, half
        the edge queries are planted hits drawn from them, the other
        half random pairs — so both kernel outcomes are exercised.
    seed:
        Everything (popularity, mix, schedule) derives from this.
    write_fraction:
        Share of requests that are edge writes (mixed read/write
        traffic against a write-capable store); the write mask is
        drawn *after* every read-path draw, so a given seed's
        read-only stream (``write_fraction=0``) is byte-identical to
        what it was before writes existed.
    delete_fraction:
        Share of those writes that are deletes (targeting planted
        edges when *edges* is given, so deletes actually land).
    """
    require(n_requests >= 0, "n_requests must be non-negative")
    require(kind in ("zipf", "uniform"), f"unknown workload kind {kind!r}")
    require(0.0 <= edge_fraction <= 1.0, "edge_fraction must be in [0, 1]")
    require(mean_interarrival_ns >= 0, "mean interarrival must be non-negative")
    require(0.0 <= write_fraction <= 1.0, "write_fraction must be in [0, 1]")
    require(0.0 <= delete_fraction <= 1.0, "delete_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    if kind == "zipf":
        nodes = zipf_nodes(2 * n_requests, num_nodes, skew, rng)
    else:
        nodes = rng.integers(0, num_nodes, 2 * n_requests, dtype=np.int64)
    is_edge = rng.random(n_requests) < edge_fraction
    if mean_interarrival_ns > 0:
        arrivals = np.cumsum(rng.exponential(mean_interarrival_ns, n_requests))
    else:
        arrivals = np.zeros(n_requests)
    planted = rng.random(n_requests) < 0.5
    plant_idx = (
        rng.integers(0, edges[0].shape[0], n_requests)
        if edges is not None and edges[0].shape[0]
        else None
    )
    # write draws come last: a write_fraction=0 stream consumes exactly
    # the pre-write RNG sequence, keeping read-only workloads stable
    # per seed across versions
    if write_fraction > 0:
        is_write = rng.random(n_requests) < write_fraction
        is_del = rng.random(n_requests) < delete_fraction
    else:
        is_write = is_del = None
    out: list[tuple[float, Request]] = []
    for i in range(n_requests):
        if is_write is not None and is_write[i]:
            if is_del[i] and plant_idx is not None:
                u, v = int(edges[0][plant_idx[i]]), int(edges[1][plant_idx[i]])
                req: Request = WriteRequest(op="delete", u=u, v=v)
            else:
                u, v = int(nodes[2 * i]), int(nodes[2 * i + 1])
                req = WriteRequest(op="insert", u=u, v=v)
        elif is_edge[i]:
            if plant_idx is not None and planted[i]:
                u, v = int(edges[0][plant_idx[i]]), int(edges[1][plant_idx[i]])
            else:
                u, v = int(nodes[2 * i]), int(nodes[2 * i + 1])
            req = EdgeRequest(u=u, v=v)
        else:
            req = NeighborsRequest(node=int(nodes[2 * i]))
        out.append((float(arrivals[i]), req))
    return out


def replay(server, workload) -> list:
    """Drive *server* through *workload* on its manual clock — the one
    virtual-time driver (the load harness and ``repro trace`` use it).

    The server must have been built with a
    :class:`~repro.serve.request.ManualClock`; arrival times are
    offsets from its reading at the start.  Before each arrival the
    clock steps through every scheduled wakeup
    (:meth:`~repro.serve.loop.ServeLoop.next_wakeup_ns`: a wait window
    closing, a due cluster event) and pumps at each, so every batch
    closes and completes at its own time; then it advances to the
    arrival, pumps, submits, and collects the reply slot.  Ends with a
    :meth:`~repro.serve.loop.ServeLoop.drain` so every accepted ticket
    is terminal.  Returns the slots in submission order.
    """
    return _replay(server, workload)[0]


def _replay(server, workload) -> tuple[list, float, float]:
    """:func:`replay`, also returning the clock's readings at its start
    and after the drain (the load harness's timebase)."""
    clock = getattr(server, "_clock", None)
    require(
        isinstance(clock, ManualClock),
        "replay runs in virtual time: build the server with a "
        "ManualClock (open_server does for clusters)",
    )
    start_ns = clock()
    slots = []
    for arrival_ns, request in workload:
        due = start_ns + arrival_ns
        while (wake := server.next_wakeup_ns()) is not None and wake < due:
            clock.advance_to(wake)
            server.pump(clock())
        clock.advance_to(due)
        server.pump(clock())
        slots.append(server.submit(request))
    server.drain()
    return slots, start_ns, clock()
