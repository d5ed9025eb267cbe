"""Execution contexts and the simulated bulk-synchronous machine.

Every parallel kernel in this library is written against one small
interface, :class:`Executor`:

* :meth:`Executor.parallel` — run a list of *tasks* (callables taking a
  :class:`TaskContext`) as one parallel phase ending in a barrier, the
  paper's ``sync()``;
* :meth:`Executor.locked` — run tasks strictly sequentially under a
  lock, the carry-propagation step of Algorithm 1;
* :meth:`Executor.serial` — run one task on the timeline (setup,
  merges that the paper performs on a single processor).

Three executors implement it:

* :class:`SerialExecutor` runs everything inline and reports wall-clock
  time — the honest single-core baseline.
* :class:`ThreadExecutor` runs phases on a thread pool (NumPy kernels
  release the GIL for large array operations) and reports wall-clock
  time.  The repository's measurements come from 2-vCPU hosts and make
  no speed-up claim for it; there it demonstrates correctness only.
* :class:`SimulatedMachine` runs everything inline (results are
  bit-exact) while charging each task's declared :class:`Cost` to a
  virtual processor and maintaining a simulated clock: a parallel phase
  advances the clock by the *maximum* per-processor time plus a barrier;
  locked and serial sections advance it by their *sum*.  This is the
  device used to reproduce the paper's processor sweeps (DESIGN.md §1).
"""

from __future__ import annotations

import abc
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Sequence

from ..errors import ValidationError
from ..obs.tracer import NULL_TRACER
from .cost import Cost, CostAccumulator, CostModel, DEFAULT_COST_MODEL

__all__ = [
    "TaskContext",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "SimulatedMachine",
]

Task = Callable[["TaskContext"], Any]


class TaskContext:
    """Hands a running task its identity and a place to charge cost.

    ``proc_id`` is the virtual processor executing the task (0-based),
    ``nprocs`` the machine width.  Real executors ignore charges; the
    simulated machine folds them into its clock.
    """

    __slots__ = ("proc_id", "nprocs", "_acc")

    def __init__(self, proc_id: int, nprocs: int, acc: CostAccumulator | None = None):
        self.proc_id = proc_id
        self.nprocs = nprocs
        self._acc = acc

    def charge(self, cost: Cost) -> None:
        """Accumulate *cost* onto the running total."""
        if self._acc is not None:
            self._acc.charge(cost)

    def charge_reads(self, n: float) -> None:
        """Charge *n* element reads."""
        if self._acc is not None:
            self._acc.charge_reads(n)

    def charge_writes(self, n: float) -> None:
        """Charge *n* element writes."""
        if self._acc is not None:
            self._acc.charge_writes(n)

    def charge_flops(self, n: float) -> None:
        """Charge *n* arithmetic operations."""
        if self._acc is not None:
            self._acc.charge_flops(n)

    def charge_bit_ops(self, n: float) -> None:
        """Charge *n* bit-level operations."""
        if self._acc is not None:
            self._acc.charge_bit_ops(n)

    def charge_page_touches(self, n: float) -> None:
        """Charge *n* distinct mapped-page touches."""
        if self._acc is not None:
            self._acc.charge_page_touches(n)


class Executor(abc.ABC):
    """Abstract p-processor executor for chunked bulk-synchronous kernels.

    ``tracer`` is the observability slot: while it holds a
    :class:`~repro.obs.Tracer`, every phase ends with one
    ``tracer.phase(label, kind, cost, start_ns, end_ns, meta)`` call
    carrying the phase's total declared :class:`Cost` — including on the
    real executors, which otherwise discard charges.  Inside an open
    span the tracer charges that cost to it; otherwise the phase becomes
    a root span, the per-phase breakdown of a construction run.  The
    slot defaults to :data:`~repro.obs.NULL_TRACER`, and while it does
    the real executors accumulate no cost and no executor calls it, so
    the hot path pays nothing when nobody is watching.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValidationError("executor width p must be >= 1")
        self.p = int(p)
        self.tracer = NULL_TRACER

    @abc.abstractmethod
    def parallel(self, tasks: Sequence[Task], *, label: str = "") -> list:
        """Run *tasks* as one barrier-terminated parallel phase.

        Task ``i`` runs on virtual processor ``i % p``.  Returns results
        in task order.
        """

    @abc.abstractmethod
    def locked(self, tasks: Sequence[Task], *, label: str = "") -> list:
        """Run *tasks* strictly sequentially (a lock-serialised section)."""

    @abc.abstractmethod
    def serial(self, task: Task, *, label: str = "") -> Any:
        """Run one task on the timeline (single-processor section)."""

    @abc.abstractmethod
    def elapsed_ns(self) -> float:
        """Total time accounted so far (wall-clock or simulated)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Zero the clock."""

    # ------------------------------------------------------------------
    # Conveniences shared by all executors.
    def map_chunks(self, fn: Callable, chunks: Sequence, *, label: str = "",
                   locked: bool = False) -> list:
        """Run ``fn(ctx, chunk)`` for every chunk as one parallel phase
        (or, with *locked*, as one lock-serialised section in chunk
        order) — ``range(p)`` as *chunks* is the one-task-per-processor
        shape every chunked kernel uses."""
        tasks = [_bind_chunk(fn, chunk) for chunk in chunks]
        run = self.locked if locked else self.parallel
        return run(tasks, label=label or getattr(fn, "__name__", "phase"))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(p={self.p})"


def _bind_chunk(fn: Callable, chunk) -> Task:
    def task(ctx: TaskContext):
        return fn(ctx, chunk)

    return task


class SerialExecutor(Executor):
    """Runs every task inline; ``elapsed_ns`` is real wall-clock time."""

    def __init__(self, p: int = 1):
        super().__init__(p)
        self._elapsed = 0.0

    def _inline(self, tasks: Sequence[Task], label: str, kind: str) -> list:
        """Run *tasks* in order on the calling thread, timed and
        traced as one phase."""
        tracer = self.tracer
        start = time.perf_counter_ns()
        acc = CostAccumulator() if tracer is not NULL_TRACER else None
        results = [
            task(TaskContext(i % self.p, self.p, acc))
            for i, task in enumerate(tasks)
        ]
        end = time.perf_counter_ns()
        self._elapsed += end - start
        if acc is not None:
            tracer.phase(label, kind, acc.total, start, end, {"clock": "wall"})
        return results

    def parallel(self, tasks: Sequence[Task], *, label: str = "") -> list:
        return self._inline(tasks, label, "parallel")

    def locked(self, tasks: Sequence[Task], *, label: str = "") -> list:
        return self._inline(tasks, label, "locked")

    def serial(self, task: Task, *, label: str = "") -> Any:
        return self._inline((task,), label, "serial")[0]

    def elapsed_ns(self) -> float:
        return self._elapsed

    def reset(self) -> None:
        """Zero the accumulator."""
        self._elapsed = 0.0


class ThreadExecutor(SerialExecutor):
    """Runs parallel phases on a shared :class:`ThreadPoolExecutor`.

    Locked and serial sections run inline on the calling thread (the
    :class:`SerialExecutor` it extends), matching the paper's lock
    semantics (one processor in the section at a time, in chunk order —
    the carry propagation of Algorithm 1 is order-dependent, so we
    serialise deterministically rather than racing).
    """

    def __init__(self, p: int):
        super().__init__(p)
        self._pool = ThreadPoolExecutor(max_workers=self.p, thread_name_prefix="repro")

    def parallel(self, tasks: Sequence[Task], *, label: str = "") -> list:
        tracer = self.tracer
        traced = tracer is not NULL_TRACER
        start = time.perf_counter_ns()
        # per-task accumulators: charges from concurrent tasks must not
        # race on one accumulator, so each task owns its own and the
        # totals are folded after the barrier, on the calling thread
        accs = [CostAccumulator() if traced else None for _ in tasks]
        futures = [
            self._pool.submit(task, TaskContext(i % self.p, self.p, accs[i]))
            for i, task in enumerate(tasks)
        ]
        results = [f.result() for f in futures]
        end = time.perf_counter_ns()
        self._elapsed += end - start
        if traced:
            total = Cost.zero()
            for acc in accs:
                total = total + acc.total
            tracer.phase(label, "parallel", total, start, end, {"clock": "wall"})
        return results

    def shutdown(self) -> None:
        """Stop the worker threads (idempotent)."""
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class SimulatedMachine(Executor):
    """A p-processor bulk-synchronous PRAM simulator.

    Tasks execute inline (so every result is identical to a serial run)
    while their declared costs drive a simulated clock:

    * ``parallel``: task ``i`` is assigned to processor ``i % p``; the
      phase advances the clock by ``max_j(busy_j) + dispatch + sync``.
    * ``locked``: tasks run and are charged one after another, plus a
      lock hand-off latency each — the paper's sequential carry step.
    * ``serial``: charged directly.

    A phase reports to the :attr:`tracer` on the simulated clock: its
    stamps are virtual nanoseconds (meta ``clock="virtual"``) and its
    meta carries the load ``imbalance`` (max over mean per-processor
    time, 1.0 == perfectly balanced), so a traced construction run
    attributes simulated time to algorithm phases.
    """

    def __init__(
        self,
        p: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        *,
        memory_bandwidth_gbs: float | None = None,
        cache_bytes: float = 0.0,
    ):
        super().__init__(p)
        self.cost_model = cost_model
        self.memory_bandwidth_gbs = memory_bandwidth_gbs
        self.cache_bytes = float(cache_bytes)
        self._clock_ns = 0.0

    # ------------------------------------------------------------------
    @staticmethod
    def _bytes_moved(cost: Cost) -> float:
        """Rough memory traffic of a charge: 8 B per element touched
        plus the explicit bulk copies."""
        return 8.0 * (cost.reads + cost.writes) + cost.copy_bytes

    def parallel(self, tasks: Sequence[Task], *, label: str = "") -> list:
        busy = [0.0] * self.p
        phase_bytes = 0.0
        phase_cost = Cost.zero()
        results = []
        for i, task in enumerate(tasks):
            proc = i % self.p
            acc = CostAccumulator()
            results.append(task(TaskContext(proc, self.p, acc)))
            busy[proc] += self.cost_model.time_ns(acc.total) + self.cost_model.dispatch_ns
            phase_bytes += self._bytes_moved(acc.total)
            phase_cost = phase_cost + acc.total
        duration = max(busy) + self.cost_model.sync_ns if tasks else 0.0
        if tasks and self.memory_bandwidth_gbs:
            # a shared memory bus floors the phase at (traffic beyond
            # the last-level cache) / bandwidth, no matter how many
            # processors split the work — the saturation that lets
            # cache-resident graphs scale near-linearly while big ones
            # plateau (the paper's Orkut vs WebNotreDame spread)
            uncached = max(0.0, phase_bytes - self.cache_bytes)
            floor = uncached / self.memory_bandwidth_gbs
            duration = max(duration, floor + self.cost_model.sync_ns)
        self._advance(duration, "parallel", label, busy, phase_cost)
        return results

    def locked(self, tasks: Sequence[Task], *, label: str = "") -> list:
        duration = 0.0
        results = []
        per_proc = [0.0] * self.p
        phase_cost = Cost.zero()
        for i, task in enumerate(tasks):
            proc = i % self.p
            acc = CostAccumulator()
            results.append(task(TaskContext(proc, self.p, acc)))
            t = self.cost_model.time_ns(acc.total) + self.cost_model.lock_ns
            duration += t
            per_proc[proc] += t
            phase_cost = phase_cost + acc.total
        self._advance(duration, "locked", label, per_proc, phase_cost)
        return results

    def serial(self, task: Task, *, label: str = "") -> Any:
        acc = CostAccumulator()
        result = task(TaskContext(0, self.p, acc))
        self._advance(self.cost_model.time_ns(acc.total), "serial", label, (),
                      acc.total)
        return result

    def split(self, groups: int) -> list["SimulatedMachine"]:
        """Carve this machine into *groups* virtual-processor groups.

        Each sub-machine gets ``p // groups`` processors (at least 1)
        and shares this machine's cost model; its clock starts at zero.
        Run one concurrent unit of work (e.g. one shard build) on each
        group, then fold the groups' clocks back with :meth:`absorb` —
        the groups ran side by side, so the parent advances by their
        *maximum*.  The groups do not inherit the parent's
        :attr:`tracer`: only the folded :meth:`absorb` phase reports.
        """
        if groups < 1:
            raise ValidationError("group count must be >= 1")
        width = max(1, self.p // groups)
        return [
            SimulatedMachine(
                width, self.cost_model,
                memory_bandwidth_gbs=self.memory_bandwidth_gbs,
                cache_bytes=self.cache_bytes,
            )
            for _ in range(groups)
        ]

    def absorb(
        self,
        sub_machines: Sequence["SimulatedMachine"],
        *,
        label: str = "",
        kind: str = "parallel",
    ) -> float:
        """Fold concurrent sub-machine clocks into this machine's clock.

        The sub-machines (from :meth:`split`) ran their work at the
        same time on disjoint processor groups, so the phase's duration
        is the slowest group's clock — the critical path.  Reports one
        phase (its imbalance taken over the per-group times) and returns
        the absorbed duration in nanoseconds.
        """
        per_group = [float(m.elapsed_ns()) for m in sub_machines]
        duration = max(per_group) if per_group else 0.0
        self._advance(duration, kind, label, per_group, Cost.zero())
        return duration

    # ------------------------------------------------------------------
    def _advance(self, duration: float, kind: str, label: str,
                 per_proc: Sequence[float], cost: Cost) -> None:
        start = self._clock_ns
        self._clock_ns += duration
        if self.tracer is not NULL_TRACER:
            self.tracer.phase(label, kind, cost, start, self._clock_ns,
                              {"clock": "virtual", "imbalance": _imbalance(per_proc)})

    def elapsed_ns(self) -> float:
        return self._clock_ns

    def elapsed_ms(self) -> float:
        """Simulated elapsed time in milliseconds."""
        return self._clock_ns / 1e6

    def reset(self) -> None:
        """Zero the accumulator."""
        self._clock_ns = 0.0


def _imbalance(per_proc: Sequence[float]) -> float:
    """Max over mean per-processor time (1.0 == perfectly balanced)."""
    if not per_proc or max(per_proc) == 0:
        return 1.0
    mean = sum(per_proc) / len(per_proc)
    return max(per_proc) / mean if mean else 1.0
