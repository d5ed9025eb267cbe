"""Cost vocabulary for the simulated parallel machine.

The paper evaluates its algorithms on a 32-core shared-memory machine.
This environment has a single core, so wall-clock speed-up cannot be
observed directly; instead, every parallel kernel in this library
*charges* an explicit :class:`Cost` for the work it performs, and the
:class:`~repro.parallel.machine.SimulatedMachine` turns those charges
into a simulated timeline (max over processors per parallel phase,
sequential accumulation for locked sections).

The model is deliberately simple and derived from the structure of the
paper's Algorithms 1-5 rather than fitted to its Table II:

* element reads/writes dominate (the kernels are memory-bound scans),
* a barrier (``sync()`` in Algorithm 1) costs a fixed latency,
* entering a locked section costs a fixed latency,
* dispatching a task to a processor costs a fixed latency.

All constants are expressed in nanoseconds per unit and live in a
single :class:`CostModel` so that calibration is a one-line change and
benchmarks can report exactly which model produced their numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Cost", "CostModel", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True, slots=True)
class Cost:
    """An abstract amount of work, in machine-independent units.

    Attributes
    ----------
    reads, writes:
        Number of array elements read / written by the kernel.
    flops:
        Arithmetic operations not already implied by a read or write
        (e.g. the add in a prefix-sum step).
    bit_ops:
        Bit-level operations performed by packing/unpacking kernels;
        separated out because bit manipulation has a different constant
        than a plain word copy.
    copy_bytes:
        Bytes moved by bulk, streaming copies (the serial bit-array
        merge of Algorithm 4 is a memcpy, an order of magnitude cheaper
        per byte than per-element kernel work).
    page_touches:
        Distinct memory-mapped pages faulted in by an out-of-core store
        (:mod:`repro.disk`).  Kept on its own channel so every other
        channel stays bit-identical between the disk-backed and
        in-memory packed stores — the disk term is strictly additive.
    """

    reads: float = 0.0
    writes: float = 0.0
    flops: float = 0.0
    bit_ops: float = 0.0
    copy_bytes: float = 0.0
    page_touches: float = 0.0

    def __add__(self, other: "Cost") -> "Cost":
        if not isinstance(other, Cost):
            return NotImplemented
        return Cost(
            self.reads + other.reads,
            self.writes + other.writes,
            self.flops + other.flops,
            self.bit_ops + other.bit_ops,
            self.copy_bytes + other.copy_bytes,
            self.page_touches + other.page_touches,
        )

    def __mul__(self, factor: float) -> "Cost":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return Cost(
            self.reads * factor,
            self.writes * factor,
            self.flops * factor,
            self.bit_ops * factor,
            self.copy_bytes * factor,
            self.page_touches * factor,
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        """True when every cost channel is zero."""
        return not (
            self.reads
            or self.writes
            or self.flops
            or self.bit_ops
            or self.copy_bytes
            or self.page_touches
        )

    @staticmethod
    def zero() -> "Cost":
        """The all-zero cost (a shared constant)."""
        return _ZERO


_ZERO = Cost()


@dataclass(frozen=True, slots=True)
class CostModel:
    """Nanosecond weights mapping a :class:`Cost` to simulated time.

    The defaults approximate a modern x86 core streaming through memory
    (~1 ns per element touched), a ~2 microsecond barrier, and a few
    hundred nanoseconds for lock hand-off and task dispatch.  The
    *shape* of the speed-up curves — the reproduction target — comes
    from the ratio of parallel work to the sequential sections of the
    paper's algorithms, not from these constants; see DESIGN.md §4.
    """

    read_ns: float = 1.0
    write_ns: float = 1.0
    flop_ns: float = 0.5
    bit_op_ns: float = 0.25
    copy_byte_ns: float = 0.1  # ~10 GB/s streaming memcpy
    sync_ns: float = 2_000.0
    lock_ns: float = 300.0
    dispatch_ns: float = 500.0
    page_touch_ns: float = 250.0  # soft fault on a page-cache-warm mmap

    def time_ns(self, cost: Cost) -> float:
        """Simulated nanoseconds for *cost* (excludes sync/lock/dispatch,
        which the machine charges per structural event, not per kernel)."""
        return (
            cost.reads * self.read_ns
            + cost.writes * self.write_ns
            + cost.flops * self.flop_ns
            + cost.bit_ops * self.bit_op_ns
            + cost.copy_bytes * self.copy_byte_ns
            + cost.page_touches * self.page_touch_ns
        )


DEFAULT_COST_MODEL = CostModel()


@dataclass(slots=True)
class CostAccumulator:
    """Mutable running total of :class:`Cost` charges.

    Kernels call :meth:`charge`; the machine reads :attr:`total` once
    the task finishes.  Separated from the execution context so it can
    be unit-tested in isolation.
    """

    total: Cost = field(default_factory=Cost)

    def charge(self, cost: Cost) -> None:
        """Accumulate *cost* onto the running total."""
        self.total = self.total + cost

    def reset(self) -> None:
        """Zero the accumulator."""
        self.total = Cost()
