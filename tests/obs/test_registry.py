"""Unit tests for the metrics registry's sources and ``to_jsonable``."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ReproError, ValidationError
from repro.obs import MetricsRegistry, to_jsonable


class TestRegistry:
    def test_sources_pulled_and_none_omitted(self):
        reg = MetricsRegistry()
        reg.register_source("live", lambda: {"n": np.int64(3)})
        reg.register_source("absent", lambda: None)
        snap = reg.snapshot()
        assert snap["live"] == {"n": 3}
        assert "absent" not in snap

    def test_duplicate_source_rejected(self):
        reg = MetricsRegistry()
        reg.register_source("s", dict)
        with pytest.raises(ValidationError, match="already registered"):
            reg.register_source("s", dict)

    def test_source_must_be_callable(self):
        with pytest.raises(ReproError, match="callable"):
            MetricsRegistry().register_source("s", 42)

    def test_empty_registry_snapshot_is_empty(self):
        assert MetricsRegistry().snapshot() == {}


@dataclasses.dataclass(frozen=True)
class _Stats:
    hits: int
    rate: float
    samples: np.ndarray


class TestAdapters:
    def test_to_jsonable_numpy(self):
        assert to_jsonable(np.int32(4)) == 4
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert to_jsonable(np.array([1, 2])) == [1, 2]

    def test_to_jsonable_dataclass_recurses(self):
        s = _Stats(hits=np.int64(3), rate=0.5, samples=np.array([1.0]))
        assert to_jsonable(s) == {"hits": 3, "rate": 0.5, "samples": [1.0]}

    def test_to_jsonable_dict_keys_coerced(self):
        assert to_jsonable({3: np.int64(1)}) == {"3": 1}

    def test_to_jsonable_prefers_to_dict(self):
        class Obj:
            def to_dict(self):
                return {"k": np.int64(9)}

        assert to_jsonable(Obj()) == {"k": 9}
