"""`ServerConfig` / `open_server` / `load_store` and the removed path.

The unified construction API must validate every knob combination in
one place, pick the right front-end (monolithic server vs cluster
router) from the config alone, reject the removed
``GraphQueryServer(store, **kwargs)`` spelling with a one-line
:class:`ReproError` pointing at :func:`open_server`, round-trip
saved stores through :func:`repro.stores.load_store`, and refuse a
store file that lacks a key with one line naming the file and the key.
"""

import numpy as np
import pytest

from repro import open_store
from repro.cli import main
from repro.cluster import Router
from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.packed import BitPackedCSR
from repro.errors import ReproError, ValidationError
from repro.lsm import LsmStore
from repro.serve import GraphQueryServer, ManualClock, ServerConfig, open_server
from repro.stores import load_store, save_store


@pytest.fixture
def edges(rng):
    n, m = 30, 200
    src = np.sort(rng.integers(0, n, m))
    dst = rng.integers(0, n, m)
    return (*ensure_sorted(src, dst), n)


@pytest.fixture
def packed(edges):
    src, dst, n = edges
    return BitPackedCSR.from_csr(build_csr_serial(src, dst, n))


class TestServerConfigValidation:
    """Every illegal knob combination is caught at construction."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"workers": 3, "replicas": 2},
            {"workers": 0},
            {"replicas": 0},
            {"hedge_percentile": 0.0},
            {"hedge_percentile": 100.0},
            {"hedge_percentile": -5.0},
            {"hedge_min_samples": 0},
            {"service": "quantum"},
            {"tenant_quotas": {"free": 0}},
            {"policy": "bogus"},
            {"max_batch_size": 0},
            {"queue_capacity": 0},
            {"max_wait_ns": -1.0},
            {"cache_elements": -1},
            {"write_watermark": -1},
            {"store_kind": "packed"},  # kind without edges
        ],
        ids=lambda bad: next(iter(bad)),
    )
    def test_rejected_knobs(self, bad):
        with pytest.raises(ValidationError):
            ServerConfig(**bad)

    def test_edges_without_kind_rejected(self):
        with pytest.raises(ValidationError):
            ServerConfig(edges=(np.array([0]), np.array([1]), 2))

    def test_two_store_sources_rejected(self, packed, tmp_path):
        with pytest.raises(ValidationError):
            ServerConfig(store=packed, store_path=tmp_path / "g.npz")

    def test_shards_property(self):
        assert ServerConfig(workers=4, replicas=2).shards == 2
        assert ServerConfig().shards == 1

    def test_with_overrides_revalidates(self):
        config = ServerConfig(workers=4, replicas=2)
        assert config.with_overrides(workers=8).shards == 4
        with pytest.raises(ValidationError):
            config.with_overrides(workers=5)


class TestWantsCluster:
    """The auto-rule that flips open_server to the router."""

    @pytest.mark.parametrize(
        "knobs,expected",
        [
            ({}, False),
            ({"workers": 2}, True),
            ({"workers": 2, "replicas": 2}, True),
            ({"hedge_percentile": 75.0}, True),
            ({"tenant_quotas": {"free": 8}}, True),
            ({"workers": 4, "cluster": False}, False),
            ({"cluster": True}, True),
        ],
        ids=["default", "workers", "replicas", "hedge", "quotas",
             "forced-off", "forced-on"],
    )
    def test_rule(self, knobs, expected):
        assert ServerConfig(**knobs).wants_cluster is expected


class TestOpenServer:
    """open_server picks the front-end the config describes."""

    def test_plain_config_builds_monolithic_server(self, edges):
        src, dst, n = edges
        server = open_server(ServerConfig(
            store_kind="packed", edges=(src, dst, n), max_batch_size=8,
        ))
        assert isinstance(server, GraphQueryServer)
        assert server.config.max_batch_size == 8
        assert int(server.store.num_nodes) == n

    def test_cluster_config_builds_router(self, edges):
        src, dst, n = edges
        router = open_server(
            ServerConfig(store_kind="packed", edges=(src, dst, n),
                         workers=4, replicas=2),
            clock=ManualClock(),
        )
        assert isinstance(router, Router)
        assert len(router.workers) == 4
        assert router.num_shards == 2
        # replicas of one shard share the same store object
        assert router.workers[0].server.store is router.workers[1].server.store

    def test_forced_cluster_with_one_worker(self, edges):
        src, dst, n = edges
        router = open_server(
            ServerConfig(store_kind="packed", edges=(src, dst, n),
                         cluster=True),
            clock=ManualClock(),
        )
        assert isinstance(router, Router)
        assert router.num_shards == 1

    def test_forced_off_keeps_monolithic(self, packed):
        server = open_server(ServerConfig(
            store=packed, tenant_quotas={"free": 8}, cluster=False,
        ))
        assert isinstance(server, GraphQueryServer)

    def test_cluster_rejects_write_watermark(self, packed):
        with pytest.raises(ValidationError):
            open_server(ServerConfig(store=packed, workers=2,
                                     write_watermark=1024))

    def test_write_watermark_wraps_read_only_store(self, packed):
        server = open_server(ServerConfig(store=packed,
                                          write_watermark=1024))
        assert isinstance(server.store, LsmStore)
        assert server.store.compact_watermark == 1024

    def test_requires_a_store_source(self):
        with pytest.raises(ValidationError):
            open_server(ServerConfig())

    def test_rejects_non_config(self, packed):
        with pytest.raises(ValidationError):
            open_server(packed)


class TestLegacyConstructionRemoved:
    """The old kwargs spelling is gone: one-line error, no silent drift."""

    def test_legacy_kwargs_raise_repro_error(self, packed):
        with pytest.raises(ReproError, match="open_server"):
            GraphQueryServer(packed, max_batch_size=8,
                             queue_capacity=32, policy="block")

    def test_error_names_the_offending_kwargs(self, packed):
        with pytest.raises(ReproError, match="max_batch_size"):
            GraphQueryServer(packed, max_batch_size=8)

    def test_unknown_kwarg_also_raises(self, packed):
        # even a typo'd knob takes the same removal path — there is no
        # kwargs surface left to validate against
        with pytest.raises(ReproError, match="max_batch_sise"):
            GraphQueryServer(packed, max_batch_sise=8)

    def test_bare_construction_still_works(self, packed):
        server = GraphQueryServer(packed)
        assert server.config.max_batch_size == ServerConfig().max_batch_size

    def test_config_construction_works(self, packed):
        server = GraphQueryServer(packed,
                                  config=ServerConfig(max_batch_size=4))
        assert server.config.max_batch_size == 4


class TestLoadStore:
    """load_store: the load-side twin of open_store."""

    def test_round_trips_saved_packed_store(self, packed, tmp_path):
        path = tmp_path / "graph.npz"
        save_store(packed, path)
        loaded = load_store(path)
        assert int(loaded.num_nodes) == int(packed.num_nodes)
        for u in range(int(packed.num_nodes)):
            assert np.array_equal(loaded.neighbors(u), packed.neighbors(u))

    def test_store_path_config_resolves(self, packed, tmp_path):
        path = tmp_path / "graph.npz"
        save_store(packed, path)
        server = open_server(ServerConfig(store_path=path))
        assert int(server.store.num_nodes) == int(packed.num_nodes)

    def test_unrecognised_path_raises(self, tmp_path):
        bogus = tmp_path / "not-a-store.txt"
        bogus.write_text("nope")
        with pytest.raises(ReproError):
            load_store(bogus)

    @staticmethod
    def _without(edges, tmp_path, kind, opts, key):
        """A saved *kind* store file with *key* dropped."""
        src, dst, n = edges
        path = tmp_path / f"{kind}.npz"
        save_store(open_store(kind, src, dst, n, **opts), path)
        with np.load(path) as data:
            assert key in data.files
            payload = {k: data[k] for k in data.files if k != key}
        np.savez(path, **payload)
        return path

    @pytest.mark.parametrize("kind,opts,key", [
        ("sharded", {"shards": 2, "inner": "packed"}, "num_shards"),
        ("compact", {}, "offsets"),
        ("reordered", {"inner": "packed"}, "perm"),
        ("lsm", {}, "mt_u"),
    ])
    def test_missing_key_is_one_line(self, edges, tmp_path, kind, opts, key):
        path = self._without(edges, tmp_path, kind, opts, key)
        with pytest.raises(ReproError) as info:
            load_store(path)
        message = str(info.value)
        assert str(path) in message and f"'{key}'" in message
        assert "\n" not in message

    def test_missing_key_exits_2_on_the_cli(self, edges, tmp_path, capsys):
        path = self._without(edges, tmp_path, "lsm", {}, "segment0_offsets")
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'segment0_offsets'" in err
        assert err.count("\n") == 1
