"""Executor semantics: result order, clock accounting, traces."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.obs import NULL_TRACER, Tracer, rollup_spans
from repro.parallel.cost import Cost, CostModel
from repro.parallel.machine import (
    SerialExecutor,
    SimulatedMachine,
    TaskContext,
    ThreadExecutor,
)


def traced(machine):
    """*machine* with a fresh :class:`Tracer` in its slot."""
    machine.tracer = Tracer()
    return machine


def make_tasks(n):
    def make(i):
        def task(ctx: TaskContext):
            ctx.charge(Cost(reads=10))
            return (i, ctx.proc_id)

        return task

    return [make(i) for i in range(n)]


class TestResultOrdering:
    @pytest.mark.parametrize("factory", [
        lambda: SerialExecutor(),
        lambda: SimulatedMachine(3),
        lambda: ThreadExecutor(3),
    ])
    def test_parallel_preserves_task_order(self, factory):
        ex = factory()
        results = ex.parallel(make_tasks(10))
        assert [r[0] for r in results] == list(range(10))
        if isinstance(ex, ThreadExecutor):
            ex.shutdown()

    def test_round_robin_assignment(self):
        machine = SimulatedMachine(3)
        results = machine.parallel(make_tasks(7))
        assert [proc for _, proc in results] == [0, 1, 2, 0, 1, 2, 0]


class TestSimulatedClock:
    def test_parallel_phase_is_max_over_processors(self):
        model = CostModel(read_ns=1, sync_ns=0, dispatch_ns=0)
        machine = SimulatedMachine(2, model)

        def heavy(ctx):
            ctx.charge(Cost(reads=100))

        def light(ctx):
            ctx.charge(Cost(reads=10))

        machine.parallel([heavy, light])
        assert machine.elapsed_ns() == pytest.approx(100)

    def test_locked_phase_is_sum(self):
        model = CostModel(read_ns=1, lock_ns=0)
        machine = SimulatedMachine(4, model)
        machine.locked(make_tasks(4))
        assert machine.elapsed_ns() == pytest.approx(40)

    def test_sync_and_dispatch_charged(self):
        model = CostModel(read_ns=0, sync_ns=100, dispatch_ns=7)
        machine = SimulatedMachine(2, model)
        machine.parallel(make_tasks(2))
        assert machine.elapsed_ns() == pytest.approx(107)

    def test_more_processors_reduce_time(self):
        def phase(p):
            machine = SimulatedMachine(p)
            machine.parallel(make_tasks(64))
            return machine.elapsed_ns()

        assert phase(8) < phase(2) < phase(1)

    def test_empty_phase_costs_nothing(self):
        machine = SimulatedMachine(4)
        machine.parallel([])
        assert machine.elapsed_ns() == 0.0

    def test_reset(self):
        machine = SimulatedMachine(2)
        machine.parallel(make_tasks(2))
        machine.reset()
        assert machine.elapsed_ns() == 0.0

    def test_elapsed_ms(self):
        model = CostModel(read_ns=0, sync_ns=1e6, dispatch_ns=0)
        machine = SimulatedMachine(1, model)
        machine.parallel(make_tasks(1))
        assert machine.elapsed_ms() == pytest.approx(1.0)


class TestContentionModel:
    def _run_phase(self, machine, per_task_reads, ntasks):
        def make():
            def task(ctx):
                ctx.charge(Cost(reads=per_task_reads))

            return task

        machine.parallel([make() for _ in range(ntasks)])

    def test_bandwidth_floor_applies(self):
        model = CostModel(read_ns=1, sync_ns=0, dispatch_ns=0)
        # 4 tasks x 1000 reads over 4 procs: max busy = 1000 ns;
        # traffic = 4000 * 8 B; at 1 B/ns the floor is 32,000 ns
        machine = SimulatedMachine(4, model, memory_bandwidth_gbs=1.0)
        self._run_phase(machine, 1000, 4)
        assert machine.elapsed_ns() == pytest.approx(32_000)

    def test_cache_absorbs_traffic(self):
        model = CostModel(read_ns=1, sync_ns=0, dispatch_ns=0)
        machine = SimulatedMachine(
            4, model, memory_bandwidth_gbs=1.0, cache_bytes=1e9
        )
        self._run_phase(machine, 1000, 4)
        # everything cached: back to the pure max-busy time
        assert machine.elapsed_ns() == pytest.approx(1000)

    def test_no_bandwidth_means_no_floor(self):
        model = CostModel(read_ns=1, sync_ns=0, dispatch_ns=0)
        machine = SimulatedMachine(4, model)
        self._run_phase(machine, 1000, 4)
        assert machine.elapsed_ns() == pytest.approx(1000)

    def test_results_unaffected_by_contention(self, rng):
        """The contention term changes the clock, never the outputs."""
        from repro.parallel.scan import prefix_sum_parallel

        a = rng.integers(0, 100, 500)
        plain = prefix_sum_parallel(a, SimulatedMachine(4))
        bus = prefix_sum_parallel(
            a, SimulatedMachine(4, memory_bandwidth_gbs=0.001)
        )
        assert np.array_equal(plain, bus)


class TestTrace:
    def test_records_phases_with_labels(self):
        machine = traced(SimulatedMachine(2))
        machine.parallel(make_tasks(2), label="phase-a")
        machine.serial(lambda ctx: ctx.charge(Cost(reads=5)), label="phase-b")
        machine.locked(make_tasks(2), label="phase-c")
        spans = machine.tracer.spans()
        assert [(s.layer, s.name) for s in spans] == [
            ("parallel", "phase-a"),
            ("serial", "phase-b"),
            ("locked", "phase-c"),
        ]
        assert all(s.parent_id is None for s in spans)
        assert [s.cost for s in spans] == [
            Cost(reads=20), Cost(reads=5), Cost(reads=20)]
        # virtual stamps tile the simulated clock
        assert spans[0].start_ns == 0.0
        assert [a.end_ns for a in spans[:-1]] == [b.start_ns for b in spans[1:]]
        assert spans[-1].end_ns == machine.elapsed_ns()
        assert {s.meta["clock"] for s in spans} == {"virtual"}

    def test_phase_breakdown_sums_by_label(self):
        machine = traced(SimulatedMachine(2))
        machine.parallel(make_tasks(2), label="x")
        machine.parallel(make_tasks(2), label="x")
        machine.serial(lambda ctx: None, label="y")
        breakdown = {r.name: r.wall_ns for r in rollup_spans(machine.tracer.spans())}
        assert set(breakdown) == {"x", "y"}
        assert breakdown["x"] == pytest.approx(machine.elapsed_ns() - breakdown["y"])

    def test_imbalance(self):
        model = CostModel(read_ns=1, sync_ns=0, dispatch_ns=0)
        machine = traced(SimulatedMachine(2, model))

        def heavy(ctx):
            ctx.charge(Cost(reads=30))

        def light(ctx):
            ctx.charge(Cost(reads=10))

        machine.parallel([heavy, light])
        (span,) = machine.tracer.spans()
        assert span.meta["imbalance"] == pytest.approx(30 / 20)

    def test_untraced_by_default_and_split_does_not_inherit(self):
        machine = SimulatedMachine(4)
        assert machine.tracer is NULL_TRACER
        traced(machine)
        groups = machine.split(2)
        assert all(g.tracer is NULL_TRACER for g in groups)
        for g in groups:
            g.parallel(make_tasks(2), label="inner")
        machine.absorb(groups, label="outer")
        assert [(s.layer, s.name) for s in machine.tracer.spans()] == [
            ("parallel", "outer")]

    @pytest.mark.parametrize("factory", [SerialExecutor, ThreadExecutor])
    def test_real_executors_report_wall_stamps(self, factory):
        ex = traced(factory(2))
        ex.parallel(make_tasks(3), label="a")
        ex.locked(make_tasks(2), label="b")
        ex.serial(lambda ctx: None, label="c")
        spans = ex.tracer.spans()
        assert [(s.layer, s.name, s.cost) for s in spans] == [
            ("parallel", "a", Cost(reads=30)),
            ("locked", "b", Cost(reads=20)),
            ("serial", "c", Cost.zero()),
        ]
        assert all(s.meta == {"clock": "wall"} and s.end_ns >= s.start_ns
                   for s in spans)
        if isinstance(ex, ThreadExecutor):
            ex.shutdown()

    def test_phase_inside_open_span_charges_it(self):
        machine = traced(SimulatedMachine(2))
        with machine.tracer.span("kernel:neighbors", "query"):
            machine.parallel(make_tasks(2), label="decode")
            machine.serial(lambda ctx: ctx.charge(Cost(bit_ops=3)), label="gather")
        (span,) = machine.tracer.spans()
        assert span.name == "kernel:neighbors"
        assert span.cost == Cost(reads=20, bit_ops=3)


class TestValidation:
    @pytest.mark.parametrize("cls", [SerialExecutor, SimulatedMachine, ThreadExecutor])
    def test_rejects_nonpositive_width(self, cls):
        with pytest.raises(ValidationError):
            cls(0)


class TestThreadExecutor:
    def test_context_manager_shuts_down(self):
        with ThreadExecutor(2) as ex:
            assert ex.parallel(make_tasks(4))[0][0] == 0

    def test_wall_clock_accumulates(self):
        with ThreadExecutor(2) as ex:
            ex.parallel(make_tasks(4))
            assert ex.elapsed_ns() > 0
            ex.reset()
            assert ex.elapsed_ns() == 0

    def test_tasks_actually_run_concurrently_capable(self):
        # tasks write to disjoint slots of shared state, as kernels do
        out = np.zeros(8, dtype=np.int64)

        def make(i):
            def task(ctx):
                out[i] = i * i

            return task

        with ThreadExecutor(4) as ex:
            ex.parallel([make(i) for i in range(8)])
        assert out.tolist() == [i * i for i in range(8)]


class TestSerialExecutor:
    def test_locked_equals_parallel_results(self):
        ex = SerialExecutor()
        assert [r[0] for r in ex.locked(make_tasks(3))] == [0, 1, 2]

    def test_serial_returns_value(self):
        ex = SerialExecutor()
        assert ex.serial(lambda ctx: 42) == 42

    def test_charges_ignored_without_accumulator(self):
        ctx = TaskContext(0, 1)
        ctx.charge(Cost(reads=1))  # must not raise
        ctx.charge(Cost(reads=1))
        ctx.charge(Cost(writes=1))
        ctx.charge(Cost(flops=1))
        ctx.charge(Cost(bit_ops=1))
