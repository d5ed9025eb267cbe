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
  time.  On a multi-core host this shows real speed-up; on this 1-core
  CI box it demonstrates correctness only.
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
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ValidationError
from .cost import Cost, CostAccumulator, CostModel, DEFAULT_COST_MODEL

__all__ = [
    "TaskContext",
    "Executor",
    "SerialExecutor",
    "ThreadExecutor",
    "SimulatedMachine",
    "PhaseRecord",
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


@dataclass(frozen=True, slots=True)
class PhaseRecord:
    """One entry of a :class:`SimulatedMachine` trace."""

    kind: str  # "parallel" | "locked" | "serial"
    label: str
    duration_ns: float
    per_proc_ns: tuple[float, ...] = ()

    @property
    def imbalance(self) -> float:
        """Max over mean per-processor time (1.0 == perfectly balanced)."""
        busy = [t for t in self.per_proc_ns]
        if not busy or max(busy) == 0:
            return 1.0
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean else 1.0


class Executor(abc.ABC):
    """Abstract p-processor executor for chunked bulk-synchronous kernels.

    ``cost_observer`` is the observability hook: when set to a callable
    ``observer(label, cost)`` (e.g. a
    :meth:`repro.obs.Tracer.on_cost` bound method), every phase's total
    declared :class:`Cost` is reported to it — including on the real
    executors, which otherwise discard charges.  It defaults to
    ``None`` so the hot path pays nothing when nobody is watching.
    """

    def __init__(self, p: int):
        if p < 1:
            raise ValidationError("executor width p must be >= 1")
        self.p = int(p)
        self.cost_observer: Callable[[str, Cost], None] | None = None

    def _observe_cost(self, label: str, cost: Cost) -> None:
        """Report one phase's total charged cost to the observer."""
        if self.cost_observer is not None and not cost.is_zero():
            self.cost_observer(label or "phase", cost)

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
        """Zero the clock (and trace, if any)."""

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

    def _inline(self, tasks: Sequence[Task], label: str) -> list:
        """Run *tasks* in order on the calling thread, timed and
        cost-observed as one phase."""
        start = time.perf_counter_ns()
        acc = CostAccumulator() if self.cost_observer is not None else None
        results = [
            task(TaskContext(i % self.p, self.p, acc))
            for i, task in enumerate(tasks)
        ]
        self._elapsed += time.perf_counter_ns() - start
        if acc is not None:
            self._observe_cost(label, acc.total)
        return results

    def parallel(self, tasks: Sequence[Task], *, label: str = "") -> list:
        return self._inline(tasks, label)

    def locked(self, tasks: Sequence[Task], *, label: str = "") -> list:
        return self._inline(tasks, label)

    def serial(self, task: Task, *, label: str = "") -> Any:
        return self._inline((task,), label)[0]

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
        start = time.perf_counter_ns()
        observe = self.cost_observer is not None
        # per-task accumulators: charges from concurrent tasks must not
        # race on one accumulator, so each task owns its own and the
        # totals are folded after the barrier
        accs = [CostAccumulator() if observe else None for _ in tasks]
        futures = [
            self._pool.submit(task, TaskContext(i % self.p, self.p, accs[i]))
            for i, task in enumerate(tasks)
        ]
        results = [f.result() for f in futures]
        self._elapsed += time.perf_counter_ns() - start
        if observe:
            total = Cost.zero()
            for acc in accs:
                total = total + acc.total
            self._observe_cost(label, total)
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

    ``record_trace=True`` keeps a :class:`PhaseRecord` per phase so
    benches can attribute simulated time to algorithm phases and report
    load imbalance.
    """

    def __init__(
        self,
        p: int,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        *,
        record_trace: bool = False,
        memory_bandwidth_gbs: float | None = None,
        cache_bytes: float = 0.0,
    ):
        super().__init__(p)
        self.cost_model = cost_model
        self.record_trace = record_trace
        self.memory_bandwidth_gbs = memory_bandwidth_gbs
        self.cache_bytes = float(cache_bytes)
        self.trace: list[PhaseRecord] = []
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
        self._observe_cost(label, phase_cost)
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
        self._advance(duration, "parallel", label, tuple(busy))
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
        self._observe_cost(label, phase_cost)
        self._advance(duration, "locked", label, tuple(per_proc))
        return results

    def serial(self, task: Task, *, label: str = "") -> Any:
        acc = CostAccumulator()
        result = task(TaskContext(0, self.p, acc))
        self._observe_cost(label, acc.total)
        self._advance(self.cost_model.time_ns(acc.total), "serial", label, ())
        return result

    def split(self, groups: int) -> list["SimulatedMachine"]:
        """Carve this machine into *groups* virtual-processor groups.

        Each sub-machine gets ``p // groups`` processors (at least 1)
        and shares this machine's cost model; its clock starts at zero.
        Run one concurrent unit of work (e.g. one shard build) on each
        group, then fold the groups' clocks back with :meth:`absorb` —
        the groups ran side by side, so the parent advances by their
        *maximum*.
        """
        if groups < 1:
            raise ValidationError("group count must be >= 1")
        width = max(1, self.p // groups)
        return [
            SimulatedMachine(
                width, self.cost_model, record_trace=self.record_trace,
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
        is the slowest group's clock — the critical path.  Appends one
        trace record (per-group times as ``per_proc_ns``) and returns
        the absorbed duration in nanoseconds.
        """
        per_group = tuple(float(m.elapsed_ns()) for m in sub_machines)
        duration = max(per_group) if per_group else 0.0
        self._advance(duration, kind, label, per_group)
        return duration

    # ------------------------------------------------------------------
    def _advance(
        self, duration: float, kind: str, label: str, per_proc: tuple[float, ...]
    ) -> None:
        self._clock_ns += duration
        if self.record_trace:
            self.trace.append(PhaseRecord(kind, label, duration, per_proc))

    def elapsed_ns(self) -> float:
        return self._clock_ns

    def elapsed_ms(self) -> float:
        """Simulated elapsed time in milliseconds."""
        return self._clock_ns / 1e6

    def reset(self) -> None:
        """Zero the accumulator."""
        self._clock_ns = 0.0
        self.trace = []

    def phase_breakdown(self) -> dict[str, float]:
        """Simulated nanoseconds per phase label (requires a trace)."""
        out: dict[str, float] = {}
        for rec in self.trace:
            out[rec.label] = out.get(rec.label, 0.0) + rec.duration_ns
        return out
