"""CLI: every command end-to-end through main()."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.stores import load_store

from . import cli_golden


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edges.txt"
    assert main(["generate", "er", str(path), "--nodes", "50", "--edges", "400"]) == 0
    return path


@pytest.fixture
def packed_file(tmp_path, edge_file):
    out = tmp_path / "g.npz"
    assert main(["build", str(edge_file), str(out), "-p", "4"]) == 0
    return out


class TestGenerate:
    @pytest.mark.parametrize("kind", ["rmat", "er", "ba", "ws"])
    def test_kinds(self, tmp_path, kind, capsys):
        path = tmp_path / f"{kind}.txt"
        rc = main(["generate", kind, str(path), "--nodes", "64", "--edges", "300"])
        assert rc == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_standin(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        rc = main(["generate", "standin", str(path), "--name", "webnotredame",
                   "--scale", "0.002"])
        assert rc == 0
        assert "edges" in capsys.readouterr().out


class TestBuild:
    def test_build_roundtrip(self, packed_file, capsys):
        packed = load_store(packed_file)
        assert packed.num_edges == 400
        rc = main(["info", str(packed_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "bits per edge" in out

    def test_build_gap(self, tmp_path, edge_file):
        out = tmp_path / "gap.npz"
        assert main(["build", str(edge_file), str(out), "--gap"]) == 0
        assert load_store(out).gap_encoded

    def test_build_reports_simulated_time(self, tmp_path, edge_file, capsys):
        out = tmp_path / "g.npz"
        main(["build", str(edge_file), str(out), "-p", "8"])
        assert "simulated ms on p=8" in capsys.readouterr().out

    def test_missing_input(self, tmp_path, capsys):
        rc = main(["build", str(tmp_path / "nope.txt"), str(tmp_path / "o.npz")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 2 3\n")
        rc = main(["build", str(bad), str(tmp_path / "o.npz")])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestQuery:
    def test_neighbors(self, packed_file, capsys):
        rc = main(["query", str(packed_file), "neighbors", "0", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degree" in out

    def test_neighbors_with_row_cache(self, packed_file, capsys):
        rc = main(["query", str(packed_file), "--cache-elements", "5000",
                   "neighbors", "0", "0", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "degree" in out
        # cache stats table printed after the batch, and node 0 repeated
        assert "hit rate" in out
        assert "misses" in out

    def test_edge_with_row_cache_keeps_exit_codes(self, packed_file, capsys):
        packed = load_store(packed_file)
        u = int(np.argmax(packed.degrees()))
        v = int(packed.neighbors(u)[0])
        rc = main(["query", str(packed_file), "--cache-elements", "100",
                   "edge", str(u), str(v)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "present" in out and "hit rate" in out

    def test_edge_exit_codes(self, packed_file, capsys):
        packed = load_store(packed_file)
        # find one present edge
        u = int(np.argmax(packed.degrees()))
        v = int(packed.neighbors(u)[0])
        assert main(["query", str(packed_file), "edge", str(u), str(v)]) == 0
        assert "present" in capsys.readouterr().out
        # a guaranteed-absent self-edge on an isolated check
        missing = main(["query", str(packed_file), "edge", str(u), str(u)])
        out = capsys.readouterr().out
        if "absent" in out:
            assert missing == 3
        else:
            assert missing == 0

    def test_out_of_range_is_clean_error(self, packed_file, capsys):
        rc = main(["query", str(packed_file), "neighbors", "9999"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestBench:
    def test_table2(self, capsys):
        rc = main(["bench", "table2", "--scale", "0.0003", "--min-edges", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Speed-Up (%)" in out
        assert "paper CSR" in out

    @pytest.mark.parametrize("artifact", ["fig6", "fig7"])
    def test_figures(self, artifact, capsys):
        rc = main(["bench", artifact, "--scale", "0.0003", "--min-edges", "3000"])
        assert rc == 0
        assert "Figure" in capsys.readouterr().out

    @pytest.mark.parametrize("artifact,title", [
        ("table2", "Table II claims"), ("fig6", "Figure 6 claims"),
        ("fig7", "Figure 7 claims")])
    def test_shape_verdicts_follow_the_artifact(self, artifact, title, capsys):
        """Each artifact is followed by its own PASS/FAIL shape verdicts
        (and Figure 7 by the Amdahl serial fraction of every graph)."""
        rc = main(["bench", artifact, "--scale", "0.0003", "--min-edges", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert title in out
        verdicts = out[out.index(title):].splitlines()
        assert any(line.startswith(("PASS", "FAIL")) for line in verdicts)
        amdahl = "Amdahl serial fractions" in out
        assert amdahl == (artifact == "fig7")
        if amdahl:
            for name in ("livejournal", "pokec", "orkut", "webnotredame"):
                assert f"  {name}: 0." in out


class TestServeBench:
    def test_smoke_tiny_graph(self, capsys):
        rc = main(["serve-bench", "--nodes", "256", "--edges", "2000",
                   "--requests", "400", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving throughput" in out
        assert "coalesced" in out
        assert "batches dispatched" in out

    def test_smoke_with_cache_and_policy(self, capsys):
        rc = main(["serve-bench", "--nodes", "256", "--edges", "2000",
                   "--requests", "300", "--seed", "7", "--policy", "shed-oldest",
                   "--cache-elements", "4000", "--workload", "uniform"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "row cache (serve path)" in out

    def test_serves_built_file(self, packed_file, capsys):
        rc = main(["serve-bench", "--input", str(packed_file),
                   "--requests", "200", "--batch", "32"])
        assert rc == 0
        assert "req/s" in capsys.readouterr().out


class TestTrace:
    def test_monolithic_trace_renders_all_views(self, capsys):
        rc = main(["trace", "--nodes", "256", "--edges", "2000",
                   "--requests", "24", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traced" in out and "roots" in out
        assert "kernel:neighbors" in out
        assert "cost rollup" in out
        assert "flamegraph" in out

    def test_cluster_trace_shows_scatter_chain(self, capsys):
        rc = main(["trace", "--workers", "4", "--replicas", "2",
                   "--nodes", "256", "--edges", "2000",
                   "--requests", "24", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "router:sub" in out
        assert "router:dispatch" in out
        assert "query:kernel:neighbors" in out

    def test_trace_json_schema(self, capsys):
        import json

        rc = main(["trace", "--nodes", "128", "--edges", "1000",
                   "--requests", "8", "--json", "--seed", "7"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "trace"
        assert doc["mode"] == "monolithic"
        assert doc["spans"] and doc["rollup"]
        span = doc["spans"][0]
        assert {"span_id", "parent_id", "name", "layer", "cost"} <= set(span)
        roots = [s for s in doc["spans"] if s["parent_id"] is None]
        assert roots and all(s["name"] == "request" for s in roots)

    def test_trace_built_file(self, packed_file, capsys):
        rc = main(["trace", "--input", str(packed_file),
                   "--requests", "8", "--seed", "3"])
        assert rc == 0
        assert "kernel:" in capsys.readouterr().out

    def test_trace_sampling_knob(self, capsys):
        rc = main(["trace", "--nodes", "128", "--edges", "1000",
                   "--requests", "16", "--sample-every", "4", "--seed", "7"])
        assert rc == 0
        assert "sample every 4" in capsys.readouterr().out


class TestJsonOutputs:
    def test_info_json(self, packed_file, capsys):
        import json

        rc = main(["info", str(packed_file), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "BitPackedCSR"
        assert doc["nodes"] == 50
        assert doc["edges"] == 400
        assert doc["bits_per_edge"] > 0

    def test_serve_bench_json_monolithic(self, capsys):
        import json

        rc = main(["serve-bench", "--nodes", "256", "--edges", "2000",
                   "--requests", "300", "--seed", "7", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "serve-bench"
        assert doc["mode"] == "monolithic"
        assert doc["speedup"] > 0
        assert doc["coalesced"]["completed"] > 0

    def test_serve_bench_json_cluster(self, capsys):
        import json

        rc = main(["serve-bench", "--workers", "2", "--replicas", "1",
                   "--nodes", "256", "--edges", "2000",
                   "--requests", "400", "--seed", "7", "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "cluster"
        assert doc["workers"] == 2
        assert doc["cluster"]["subs_dispatched"] > 0


class TestCleanErrors:
    """ReproError must exit non-zero with a one-line message — no
    traceback — all the way through the real interpreter entry point."""

    def test_repro_error_exit_code_and_message(self, packed_file):
        import os
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(repo / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "query", str(packed_file),
             "neighbors", "999999"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert "Traceback" not in proc.stdout

    def test_validation_error_in_process(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("not an edge list\n")
        rc = main(["build", str(bad), str(tmp_path / "o.npz")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestFlagConflicts:
    """Flag combinations that used to be silently dropped fail with the
    one-line error their neighbours already raise."""

    def test_segment_bytes_needs_segments(self, tmp_path, edge_file, capsys):
        out = tmp_path / "g.npz"
        rc = main(["build", str(edge_file), str(out), "--segment-bytes", "512"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --segment-bytes") and err.count("\n") == 1
        assert not out.exists()
        assert main(["build", str(edge_file), str(out), "--segment-bytes", "512",
                     "--codec", "auto"]) == 0

    def test_cluster_serve_bench_rejects_shards(self, capsys):
        rc = main(["serve-bench", "--workers", "2", "--shards", "4",
                   "--nodes", "64", "--edges", "300", "--requests", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--shards" in err
        assert err.count("\n") == 1

    def test_ordered_disk_build_reports_the_input_files_text_size(
            self, tmp_path, capsys):
        edges = tmp_path / "ba.txt"
        main(["generate", "ba", str(edges), "--nodes", "128", "--edges", "900"])
        size = capsys.readouterr().out.split("(")[1].split(")")[0]
        main(["build", str(edges), str(tmp_path / "d"), "--format", "disk",
              "--order", "degree"])
        assert f"({size} as text)" in capsys.readouterr().out


class TestGoldenSurface:
    """``tests/data``: the help of every parser byte for byte, and the
    seeded command matrix of :mod:`tests.cli_golden` row by row."""

    def test_help_of_every_parser(self):
        assert cli_golden.help_text() == cli_golden.HELP_GOLDEN.read_text()

    @pytest.fixture(scope="class")
    def matrix(self):
        return cli_golden.run_matrix()

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(cli_golden.MATRIX_GOLDEN.read_text())

    @pytest.mark.parametrize("row", [name for name, _ in cli_golden.MATRIX])
    def test_matrix_row(self, matrix, golden, row):
        assert matrix["rows"][row] == golden["rows"][row]

    def test_saved_stores_bit_identical(self, matrix, golden):
        assert matrix["artifacts"] == golden["artifacts"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])
