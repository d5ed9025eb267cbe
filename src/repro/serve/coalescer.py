"""Micro-batch coalescing: a request FIFO drained into kernel batches.

The batched kernels of Section V (Algorithms 6-7) amortise their fixed
per-call cost over the whole batch, so a serving layer wants batches
as large as the traffic allows — but an open-loop stream delivers
requests one at a time.  :class:`MicroBatchCoalescer` holds arrivals
in a FIFO and closes a batch when *either* bound trips:

* **size** — the queue reached ``max_batch_size`` (throughput bound);
* **window** — the open window has lasted ``max_wait_ns`` (latency
  bound); the batch holds the requests that had arrived by that close
  time;
* **flush** — the server is draining (shutdown, or a ``block``
  admission policy forcing room).

A window opens when a request is offered into an empty queue, at the
``now`` that offer is given, and is held in one stamp, ``opened_ns``:
:meth:`~MicroBatchCoalescer.poll`, :meth:`~MicroBatchCoalescer.offer`'s
due test and :attr:`~MicroBatchCoalescer.next_close_ns` all read it.
Every close, shed or flush that leaves requests queued re-opens the
window at the new head's ``enqueue_ns``.  The serve loop dispatches an
expired window *before* it offers the request that found it expired,
at the clock's reading after that dispatch, so on the wall clock the
late request's window is counted from the end of the dispatch it
waited through (its latency still counts from its arrival).

A late request never rides in an expired window, on either close
path: a window batch takes only the requests whose ``enqueue_ns`` is
at most its close time, and a queue that reached ``max_batch_size``
only after its window expired closes by window, not by size.

The clock is an injectable callable (``() -> ns``) so tests drive
closure deterministically with a
:class:`~repro.serve.request.ManualClock`.  Window closures stamp the
*analytic* close time — ``opened_ns + max_wait_ns`` — rather than
whenever the poll happened to run, keeping latency accounting
independent of poll cadence.

A closed :class:`MicroBatch` carries its dedup :meth:`~MicroBatch.plan`:
repeated hot keys (the celebrity nodes of a Zipf workload) collapse to
one kernel lane each, while every ticket keeps its own reply slot.
"""

from __future__ import annotations

import math
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
        Close a (possibly partial) batch once the open window has
        lasted this long; ``0`` means every poll drains immediately.
    clock:
        Nanosecond monotonic clock; injectable for deterministic tests.
    """

    __slots__ = ("max_batch_size", "max_wait_ns", "_clock", "queue",
                 "opened_ns")

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
        #: when the open window opened; ``inf`` while the queue is empty,
        #: so ``opened_ns + max_wait_ns`` is never due without a window
        self.opened_ns = math.inf

    @property
    def pending(self) -> int:
        """Requests queued and not yet closed into a batch."""
        return len(self.queue)

    @property
    def next_close_ns(self) -> float | None:
        """Clock time at which the open window expires (``None`` with an
        empty queue) — the wakeup a virtual-time driver must pump at to
        avoid stalling a partial batch; :meth:`poll` closes it at
        exactly this time."""
        if not self.queue:
            return None
        return self.opened_ns + self.max_wait_ns

    def offer(self, request: Request, now: float | None = None) -> bool:
        """Append one admitted request (never closes here); an offer into
        an empty queue opens the window at *now*.  True when
        :meth:`poll` at *now* would close a batch — size reached or the
        window expired — so a caller polls only then."""
        if now is None:
            now = self._clock()
        queue = self.queue
        if not queue:
            self.opened_ns = float(now)
        queue.append(request)
        return (len(queue) >= self.max_batch_size
                or now >= self.opened_ns + self.max_wait_ns)

    def poll(self, now: float | None = None) -> MicroBatch | None:
        """Return the next closed batch, or None while both bounds hold.

        An expired window closes first, at its analytic close time,
        over the requests that had arrived by then: a request that
        arrived later starts the next window, even when it filled the
        queue to ``max_batch_size``.  Size closure wins when the batch
        was already full by the window's close (it yields the fuller
        batch and stamps the later close time).
        """
        queue = self.queue
        if not queue:
            return None
        if now is None:
            now = self._clock()
        k = min(len(queue), self.max_batch_size)
        # the same `opened_ns + max_wait_ns` expression next_close_ns
        # advertises: `now - opened >= max_wait_ns` can round the other
        # way, leaving a wakeup that never fires
        close = self.opened_ns + self.max_wait_ns
        if now >= close:
            # counted from the tail: the late arrivals are the last ones
            while k > 1 and queue[k - 1].enqueue_ns > close:
                k -= 1
            if k < self.max_batch_size:
                return self._close(k, "window", close)
        if k == self.max_batch_size:
            return self._close(k, "size", now)
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

    def shed(self) -> Request:
        """Drop and return the oldest queued request (the ``shed-oldest``
        admission policy); the window re-opens at the new head's
        arrival."""
        victim = self.queue.popleft()
        self._reopen()
        return victim

    def _close(self, k: int, reason: str, closed_ns: float) -> MicroBatch:
        queue = self.queue
        taken = tuple(queue.popleft() for _ in range(k))
        self._reopen()
        return MicroBatch(requests=taken, closed_by=reason, closed_ns=float(closed_ns))

    def _reopen(self) -> None:
        """Open the window of what is left at its head's arrival."""
        queue = self.queue
        self.opened_ns = float(queue[0].enqueue_ns) if queue else math.inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MicroBatchCoalescer(max_batch_size={self.max_batch_size}, "
            f"max_wait_ns={self.max_wait_ns:.0f}, pending={self.pending})"
        )
