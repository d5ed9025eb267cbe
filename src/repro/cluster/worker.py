"""`ShardWorker` — one worker serving one shard replica.

A worker is the cluster's unit of both parallelism and failure.  It
holds a :class:`~repro.serve.server.GraphQueryServer` over its shard's
store for the engine, row cache and tracer, and calls that server's
kernel step (:meth:`~repro.serve.server.GraphQueryServer.run_kernels`)
directly on the key arrays the router scattered to it — the router
already admitted, coalesced and deduplicated the batch, so the worker
runs no front door of its own.  Beside the server it keeps the
scheduling state the router needs to load-balance and hedge across
replicas of the same shard:

* ``busy_until`` — virtual time at which the worker's current work
  finishes; the router picks the least-loaded alive replica and
  queues behind it (one sub-batch at a time per worker — a worker is
  one serial processor group).
* a service-time source — by default the worker's
  :class:`~repro.parallel.SimulatedMachine` processor group (carved
  from a parent machine with ``split()``), whose cost-charged clock
  delta for the sub-batch is its deterministic service time;
  ``service="wall"`` measures real kernel nanoseconds instead.
* fault injection — :meth:`fail` stamps a virtual failure time; the
  router drops completions from workers that failed before the
  completion would have landed and retries the sub on another
  replica.  :attr:`slow_factor` stretches service times to inject a
  straggler (the hedging bench's slow replica).

Replicas of one shard share a single store object — the in-process
analogue of replica processes memory-mapping the same read-only
:class:`~repro.disk.DiskStore` segments; replication buys service
capacity, not copies of the data.

Tracing: when the cluster is built with ``obs=``, the worker's server
shares the cluster's :class:`~repro.obs.Tracer`, and the router runs
:meth:`ShardWorker.serve` under its per-attempt ``sub`` span; the
kernel step hangs its ``serve:dispatch`` → ``kernel:*`` spans off that
span, so they nest under the scatter tree (and a worker never starts
roots of its own — it never submits).
"""

from __future__ import annotations

from ..parallel.machine import SimulatedMachine
from ..serve.server import GraphQueryServer

__all__ = ["ShardWorker"]


class ShardWorker:
    """One replica worker: a query server plus scheduling/failure state.

    Parameters
    ----------
    worker_id / shard_id:
        Cluster-wide worker index and the shard this replica serves.
    server:
        The worker's :class:`GraphQueryServer` over the shard store
        (its engine, cache and tracer; only its kernel step runs).
    machine:
        The worker's simulated processor group when service times are
        simulated (``None`` under ``service="wall"``).
    """

    __slots__ = (
        "worker_id",
        "shard_id",
        "server",
        "machine",
        "busy_until",
        "failed_at",
        "slow_factor",
        "subs_served",
        "requests_served",
        "busy_ns",
        "hedge_wins",
    )

    def __init__(
        self,
        worker_id: int,
        shard_id: int,
        server: GraphQueryServer,
        *,
        machine: SimulatedMachine | None = None,
    ):
        self.worker_id = int(worker_id)
        self.shard_id = int(shard_id)
        self.server = server
        self.machine = machine
        self.busy_until = 0.0
        self.failed_at: float | None = None
        self.slow_factor = 1.0
        self.subs_served = 0
        self.requests_served = 0
        self.busy_ns = 0.0
        self.hedge_wins = 0

    # -- failure injection ----------------------------------------------
    def fail(self, at_ns: float | None = None) -> None:
        """Mark this worker down (at *at_ns*, default: immediately).

        In-flight completions that would land after the failure time
        are lost; the router retries them on a sibling replica.
        """
        self.failed_at = float(at_ns) if at_ns is not None else 0.0

    def recover(self) -> None:
        """Bring a failed worker back (it rejoins replica selection)."""
        self.failed_at = None

    def alive_at(self, t_ns: float) -> bool:
        """Whether the worker is up at virtual time *t_ns*."""
        return self.failed_at is None or t_ns < self.failed_at

    # -- sub-batch service ----------------------------------------------
    def serve(self, nodes, edges, *, wall: bool = False):
        """Serve one scattered sub-batch through the batch kernels.

        *nodes* is the shard's slice of the batch's unique node keys,
        *edges* its unique ``(u, v)`` rows — distinct by construction,
        so they go straight to the server's kernel step: the same
        Algorithm 6/7 kernels as monolithic serving, bit-exact.
        Returns ``(rows, exists, service_ns)`` where ``service_ns`` is
        the simulated processor-group time charged for the kernels (or
        measured wall time with ``wall=True``), stretched by
        :attr:`slow_factor`.
        """
        m0 = self.machine.elapsed_ns() if self.machine is not None else 0.0
        server = self.server
        rows, exists, wall_ns = server.run_kernels(
            nodes, edges, parent=server.tracer.current(),
            meta={"batch_size": len(nodes) + len(edges)},
        )
        if wall or self.machine is None:
            service_ns = float(wall_ns)
        else:
            service_ns = float(self.machine.elapsed_ns() - m0)
        service_ns *= float(self.slow_factor)
        self.subs_served += 1
        self.requests_served += len(rows) + len(exists)
        self.busy_ns += service_ns
        return rows, exists, service_ns

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "down" if self.failed_at is not None else "up"
        return (
            f"ShardWorker(id={self.worker_id}, shard={self.shard_id}, "
            f"{state}, subs={self.subs_served})"
        )
