"""Micro-batch coalescing: a request FIFO drained into kernel batches.

The batched kernels of Section V (Algorithms 6-7) amortise their fixed
per-call cost over the whole batch, so a serving layer wants batches
as large as the traffic allows — but an open-loop stream delivers
requests one at a time.  :class:`MicroBatchCoalescer` holds arrivals
in a FIFO and closes a batch when *either* bound trips:

* **size** — the queue reached ``max_batch_size`` (throughput bound);
* **window** — the oldest queued request has waited ``max_wait_ns``
  (latency bound);
* **flush** — the server is draining (shutdown, or a ``block``
  admission policy forcing room).

The clock is an injectable callable (``() -> ns``) so tests drive
closure deterministically with a
:class:`~repro.serve.request.ManualClock`.  Window closures stamp the
*analytic* close time — ``oldest.enqueue_ns + max_wait_ns`` — rather
than whenever the poll happened to run, keeping latency accounting
independent of poll cadence.

A closed :class:`MicroBatch` carries its dedup :meth:`~MicroBatch.plan`:
repeated hot keys (the celebrity nodes of a Zipf workload) collapse to
one kernel lane each, while every ticket keeps its own reply slot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..utils import require
from .request import EdgeRequest, NeighborsRequest, Request, default_clock

__all__ = ["MicroBatch", "BatchPlan", "MicroBatchCoalescer"]

#: Why a batch closed (recorded per batch, histogrammed by metrics).
CLOSE_REASONS = ("size", "window", "flush")


@dataclass(frozen=True)
class BatchPlan:
    """Deduplicated dispatch layout of one closed batch.

    ``unique_nodes`` / ``unique_edges`` are the kernel inputs;
    ``node_lane[i]`` / ``edge_lane[i]`` map request *i* of the
    corresponding request list to its lane in the kernel output, so
    the demux step hands every ticket a reply even when several
    tickets share one lane.
    """

    neighbor_requests: tuple[NeighborsRequest, ...]
    node_lane: tuple[int, ...]
    unique_nodes: np.ndarray
    edge_requests: tuple[EdgeRequest, ...]
    edge_lane: tuple[int, ...]
    unique_edges: np.ndarray

    @property
    def duplicates(self) -> int:
        """Requests answered from another ticket's kernel lane."""
        return (len(self.neighbor_requests) - int(self.unique_nodes.shape[0])) + (
            len(self.edge_requests) - int(self.unique_edges.shape[0])
        )


@dataclass(frozen=True)
class MicroBatch:
    """An immutable closed batch: the requests plus closure metadata."""

    requests: tuple[Request, ...]
    closed_by: str  # one of CLOSE_REASONS
    closed_ns: float

    def __len__(self) -> int:
        return len(self.requests)

    @cached_property
    def plan(self) -> BatchPlan:
        """Split into neighbour/edge lanes with in-batch key dedup.

        First occurrence of a key claims a lane (stable order, so
        kernel inputs are deterministic for a given arrival order);
        later occurrences map onto it.  The dicts are keyed by the ids
        themselves, so their keys in insertion order are the lanes.
        """
        nreqs: list[NeighborsRequest] = []
        nlane: list[int] = []
        node_of: dict = {}
        ereqs: list[EdgeRequest] = []
        elane: list[int] = []
        edge_of: dict = {}
        for req in self.requests:
            kind = type(req)
            if kind is NeighborsRequest or (
                kind is not EdgeRequest and isinstance(req, NeighborsRequest)
            ):
                nlane.append(node_of.setdefault(req.node, len(node_of)))
                nreqs.append(req)
            else:  # submit admits nothing else into a batch
                elane.append(edge_of.setdefault((req.u, req.v), len(edge_of)))
                ereqs.append(req)
        return BatchPlan(
            neighbor_requests=tuple(nreqs),
            node_lane=tuple(nlane),
            unique_nodes=np.array(list(node_of), dtype=np.int64),
            edge_requests=tuple(ereqs),
            edge_lane=tuple(elane),
            unique_edges=np.array(list(edge_of), dtype=np.int64).reshape(-1, 2),
        )


class MicroBatchCoalescer:
    """Bounded-latency FIFO-to-batch adapter.

    Parameters
    ----------
    max_batch_size:
        Close a batch as soon as this many requests are queued
        (``1`` degenerates to one-request-at-a-time serving — the
        bench baseline).
    max_wait_ns:
        Close a (possibly partial) batch once the oldest queued
        request has waited this long; ``0`` means every poll drains
        immediately.
    clock:
        Nanosecond monotonic clock; injectable for deterministic tests.
    """

    __slots__ = ("max_batch_size", "max_wait_ns", "_clock", "queue")

    def __init__(
        self,
        max_batch_size: int = 64,
        max_wait_ns: float = 1_000_000.0,
        *,
        clock=default_clock,
    ):
        require(max_batch_size >= 1, "max_batch_size must be >= 1")
        require(max_wait_ns >= 0, "max_wait_ns must be non-negative")
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ns = float(max_wait_ns)
        self._clock = clock
        #: the FIFO of admitted, not yet closed requests (oldest first)
        self.queue: deque[Request] = deque()

    @property
    def pending(self) -> int:
        """Requests queued and not yet closed into a batch."""
        return len(self.queue)

    @property
    def next_close_ns(self) -> float | None:
        """Clock time at which the oldest queued request's wait window
        expires (``None`` with an empty queue) — the wakeup a
        virtual-time driver must pump at to avoid stalling a partial
        batch."""
        if not self.queue:
            return None
        oldest = self.queue[0].enqueue_ns
        if oldest is None:  # pragma: no cover - offers always stamped
            return None
        return float(oldest) + self.max_wait_ns

    def offer(self, request: Request, now: float | None = None) -> bool:
        """Append one admitted request (never closes here); True when
        :meth:`poll` at *now* would close a batch — size reached or the
        oldest window expired — so a caller polls only then."""
        queue = self.queue
        queue.append(request)
        if len(queue) >= self.max_batch_size:
            return True
        if now is None:
            now = self._clock()
        oldest = queue[0].enqueue_ns
        return oldest is not None and now >= oldest + self.max_wait_ns

    def poll(self, now: float | None = None) -> MicroBatch | None:
        """Return the next closed batch, or None while both bounds hold.

        Size closure wins when both trip at once (it yields the fuller
        batch and stamps the later close time).
        """
        if not self.queue:
            return None
        if now is None:
            now = self._clock()
        if len(self.queue) >= self.max_batch_size:
            return self._close(self.max_batch_size, "size", now)
        oldest = self.queue[0].enqueue_ns
        # compare against the same `oldest + max_wait_ns` expression
        # next_close_ns advertises: `now - oldest >= max_wait_ns` can
        # round the other way, leaving a wakeup that never fires
        if oldest is not None and now >= oldest + self.max_wait_ns:
            # analytic close time: independent of when the poll ran
            return self._close(len(self.queue), "window", oldest + self.max_wait_ns)
        return None

    def flush(self, now: float | None = None) -> list[MicroBatch]:
        """Drain the whole FIFO into size-capped ``flush`` batches."""
        if now is None:
            now = self._clock()
        out = []
        while (batch := self.close_batch(now)) is not None:
            out.append(batch)
        return out

    def close_batch(self, now: float | None = None, reason: str = "flush"
                    ) -> MicroBatch | None:
        """Force-close one batch of up to ``max_batch_size`` oldest
        requests (the ``block`` admission policy making room), or None
        when the queue is empty."""
        if not self.queue:
            return None
        if now is None:
            now = self._clock()
        return self._close(min(len(self.queue), self.max_batch_size), reason, now)

    def _close(self, k: int, reason: str, closed_ns: float) -> MicroBatch:
        taken = tuple(self.queue.popleft() for _ in range(k))
        return MicroBatch(requests=taken, closed_by=reason, closed_ns=float(closed_ns))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatchCoalescer(max_batch_size={self.max_batch_size}, "
            f"max_wait_ns={self.max_wait_ns:.0f}, pending={self.pending})"
        )
