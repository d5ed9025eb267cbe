"""The algorithm registry and the stepper protocol."""

import numpy as np
import pytest

from repro.algorithms import (
    AlgorithmResult,
    AlgorithmStepper,
    available_algorithms,
    get_algorithm_spec,
    make_stepper,
    register_algorithm,
    run,
)
from repro.algorithms import registry as registry_module
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.errors import ValidationError


@pytest.fixture
def store(rng):
    n, m = 40, 300
    src = np.sort(rng.integers(0, n, m))
    return build_csr_serial(*ensure_sorted(src, rng.integers(0, n, m)), n)


class TestRegistry:
    def test_builtins_registered(self):
        names = available_algorithms()
        assert {"bfs", "pagerank", "triangles"} <= set(names)
        assert names == sorted(names)

    def test_unknown_name_lists_choices(self, store):
        with pytest.raises(ValidationError, match="known: .*bfs.*pagerank"):
            run("nope", store)
        with pytest.raises(ValidationError, match="unknown algorithm"):
            get_algorithm_spec("nope")

    def test_spec_carries_description(self):
        spec = get_algorithm_spec("bfs")
        assert spec.name == "bfs"
        assert "source" in spec.description
        assert spec.factory is not None

    def test_duplicate_registration_rejected(self):
        spec = get_algorithm_spec("bfs")
        with pytest.raises(ValidationError, match="already registered"):
            register_algorithm("bfs", spec.factory, "again")
        # replace=True is the explicit escape hatch
        register_algorithm("bfs", spec.factory, spec.description, replace=True)
        assert get_algorithm_spec("bfs").factory is spec.factory

    def test_custom_registration_reachable_by_name(self, store):
        class Constant(AlgorithmStepper):
            name = "constant"

            def __init__(self, store, executor=None, *, value=7):
                super().__init__(store, executor)
                self.value = value

            def _advance(self):
                self._finish(self.value)

        register_algorithm("constant-test", Constant, "returns its param")
        try:
            assert "constant-test" in available_algorithms()
            result = run("constant-test", store, value=11)
            assert result.value == 11
            assert result.name == "constant"
        finally:
            registry_module._REGISTRY.pop("constant-test", None)


class TestStepperProtocol:
    def test_result_before_done_raises(self, store):
        stepper = make_stepper("bfs", store, source=0)
        with pytest.raises(ValidationError, match="not finished"):
            stepper.result()

    def test_step_after_done_is_noop(self, store):
        stepper = make_stepper("bfs", store, source=0)
        result = stepper.run()
        steps = stepper.steps
        assert stepper.step() is True  # polling a finished stepper
        assert stepper.steps == steps
        assert stepper.result() is result

    def test_run_returns_algorithm_result(self, store):
        result = run("pagerank", store, max_iter=3)
        assert isinstance(result, AlgorithmResult)
        assert result.name == "pagerank"
        assert result.rounds == 3
        assert result.converged is False  # hit the cap, not tolerance
        assert result.value.shape == (store.num_nodes,)

    def test_bad_params_raise_at_construction(self, store):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            make_stepper("bfs", store, source=10**9)
        with pytest.raises(ValidationError):
            make_stepper("pagerank", store, damping=1.5)
        with pytest.raises(ValidationError):
            make_stepper("triangles", store, method="sorcery")
