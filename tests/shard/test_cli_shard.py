"""CLI sharding flags: build/query/serve-bench with --shards N."""

import numpy as np
import pytest

from repro.cli import main
from repro.stores import load_store


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edges.txt"
    assert main(["generate", "er", str(path), "--nodes", "60", "--edges", "500"]) == 0
    return path


@pytest.fixture
def packed_file(tmp_path, edge_file):
    out = tmp_path / "mono.npz"
    assert main(["build", str(edge_file), str(out)]) == 0
    return out


@pytest.mark.parametrize("partitioner", ["range", "hash"])
def test_build_sharded_file(tmp_path, edge_file, partitioner, capsys):
    out = tmp_path / "sharded.npz"
    rc = main(["build", str(edge_file), str(out), "-p", "8",
               "--shards", "4", "--partitioner", partitioner])
    assert rc == 0
    assert "ShardedStore(shards=4" in capsys.readouterr().out
    store = load_store(out)
    assert store.num_shards == 4
    assert store.partitioner.kind == partitioner


def test_build_sharded_gap(tmp_path, edge_file):
    out = tmp_path / "sharded-gap.npz"
    assert main(["build", str(edge_file), str(out), "--gap", "--shards", "2"]) == 0
    store = load_store(out)
    assert all(s.gap_encoded for s in store.shards)


def test_info_renders_shards(tmp_path, edge_file, capsys):
    out = tmp_path / "sharded.npz"
    main(["build", str(edge_file), str(out), "--shards", "3"])
    capsys.readouterr()
    assert main(["info", str(out)]) == 0
    text = capsys.readouterr().out
    assert "partitioner" in text
    assert "shard 0" in text and "shard 2" in text


def test_query_sharded_file_matches_monolithic(tmp_path, edge_file, packed_file,
                                               capsys):
    sharded = tmp_path / "sharded.npz"
    main(["build", str(edge_file), str(sharded), "--shards", "4"])
    capsys.readouterr()
    assert main(["query", str(packed_file), "neighbors", "1", "7", "23"]) == 0
    want = capsys.readouterr().out
    assert main(["query", str(sharded), "neighbors", "1", "7", "23"]) == 0
    assert capsys.readouterr().out == want


def test_query_reshards_monolithic_file(packed_file, capsys):
    """--shards N on a monolithic file re-partitions it in memory."""
    assert main(["query", str(packed_file), "neighbors", "5"]) == 0
    want = capsys.readouterr().out
    rc = main(["query", str(packed_file), "--shards", "4",
               "--partitioner", "hash", "neighbors", "5"])
    assert rc == 0
    assert capsys.readouterr().out == want


def test_query_edge_exit_codes_sharded(tmp_path, edge_file, packed_file, capsys):
    sharded = tmp_path / "sharded.npz"
    main(["build", str(edge_file), str(sharded), "--shards", "2"])
    store = load_store(sharded)
    u = int(np.argmax(store.degrees()))
    v = int(store.neighbors(u)[0])
    capsys.readouterr()
    assert main(["query", str(sharded), "edge", str(u), str(v)]) == 0
    missing = next(
        w for w in range(store.num_nodes) if not store.has_edge(u, w)
    )
    assert main(["query", str(sharded), "edge", str(u), str(missing)]) == 3


def test_serve_bench_sharded(capsys):
    rc = main(["serve-bench", "--nodes", "512", "--edges", "4000",
               "--requests", "400", "--shards", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ShardedStore(shards=4" in out
    assert "serving throughput" in out
