"""Unit tests for the cost vocabulary."""

import pytest

from repro.parallel.cost import Cost, CostAccumulator, CostModel, DEFAULT_COST_MODEL


class TestCost:
    def test_add(self):
        total = Cost(reads=1, writes=2) + Cost(reads=3, flops=4, copy_bytes=5)
        assert total == Cost(reads=4, writes=2, flops=4, copy_bytes=5)

    def test_scale(self):
        assert 2 * Cost(reads=1, bit_ops=3) == Cost(reads=2, bit_ops=6)
        assert Cost(writes=4) * 0.5 == Cost(writes=2)

    def test_zero(self):
        assert Cost.zero().is_zero()
        assert not Cost(reads=1).is_zero()
        assert not Cost(copy_bytes=1).is_zero()

    def test_add_non_cost_not_implemented(self):
        with pytest.raises(TypeError):
            Cost() + 3  # type: ignore[operator]


class TestCostModel:
    def test_time_is_linear_in_each_channel(self):
        model = CostModel(
            read_ns=1, write_ns=2, flop_ns=3, bit_op_ns=4, copy_byte_ns=5
        )
        t = model.time_ns(Cost(reads=1, writes=1, flops=1, bit_ops=1, copy_bytes=1))
        assert t == 1 + 2 + 3 + 4 + 5

    def test_default_model_orders_channels_sensibly(self):
        m = DEFAULT_COST_MODEL
        # a barrier is far costlier than touching one element; a bulk
        # copied byte is cheaper than a kernel-touched element
        assert m.sync_ns > 100 * m.read_ns
        assert m.copy_byte_ns < m.read_ns

    def test_structural_latencies_not_in_kernel_time(self):
        assert DEFAULT_COST_MODEL.time_ns(Cost()) == 0.0


class TestCostAccumulator:
    def test_accumulates(self):
        acc = CostAccumulator()
        acc.charge(Cost(reads=2))
        acc.charge(Cost(writes=3))
        acc.charge(Cost(flops=4))
        acc.charge(Cost(bit_ops=5))
        acc.charge(Cost(copy_bytes=6))
        assert acc.total == Cost(2, 3, 4, 5, 6)

    def test_reset(self):
        acc = CostAccumulator()
        acc.charge(Cost(reads=10))
        acc.reset()
        assert acc.total.is_zero()
