"""The golden CLI surface: every parser's help and one seeded command matrix.

``tests/data/cli_help.txt`` holds ``format_help()`` of the top-level
parser and every (sub)subcommand; ``tests/data/cli_matrix.json`` holds
the exit code and stdout of each :data:`MATRIX` row plus a digest of
every store file / directory the matrix writes.  ``tests/test_cli.py``
compares the working tree against both, so a refactor of ``cli.py``
cannot move a byte a user sees or a byte of a saved store.  Regenerate
(only when the surface is *meant* to change) from the repo root with
``PYTHONPATH=src python -m tests.cli_golden``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

DATA = Path(__file__).parent / "data"
HELP_GOLDEN = DATA / "cli_help.txt"
MATRIX_GOLDEN = DATA / "cli_matrix.json"

_GEN = ["--nodes", "256", "--edges", "2000", "--seed", "7"]
_SERVE = ["--nodes", "512", "--edges", "4000", "--requests", "600", "--seed", "7"]
#: a window no host can reach: monolithic serve-bench batches close by
#: size (or the final flush), so every count in its report is seeded
_BY_SIZE = ["--batch", "64", "--wait-us", "100000000"]
_TRACE = ["--nodes", "256", "--edges", "2000", "--requests", "48", "--seed", "7"]
_STORES = ["graph.npz", "sharded.npz", "compact.npz", "natural.npz",
           "disk-bin", "disk-text", "lsm.npz"]

#: ``(row id, argv)``, run in order inside one scratch directory — later
#: rows read what earlier rows wrote, and every path is relative so no
#: temporary directory name reaches stdout.
MATRIX = [
    ("generate-er", ["generate", "er", "edges.txt", *_GEN]),
    ("generate-ba", ["generate", "ba", "ba.txt", "--nodes", "512",
                     "--edges", "4000", "--seed", "7"]),
    ("generate-er-binary", ["generate", "er", "edges.bin", *_GEN, "--binary"]),
    ("build-npz", ["build", "edges.txt", "graph.npz", "-p", "4"]),
    ("build-gap", ["build", "edges.txt", "gap.npz", "--gap"]),
    ("build-sharded", ["build", "edges.txt", "sharded.npz", "--shards", "4",
                       "--partitioner", "hash"]),
    ("build-compact", ["build", "ba.txt", "compact.npz", "--order", "degree",
                       "--codec", "auto"]),
    ("build-npz-from-binary", ["build", "edges.bin", "from-binary.npz"]),
    ("build-disk-text", ["build", "ba.txt", "disk-text", "--format", "disk",
                         "--order", "degree", "--codec", "auto", "-p", "4"]),
    ("build-disk-gap", ["build", "edges.txt", "disk-gap", "--format", "disk",
                        "--gap", "--segment-bytes", "1024"]),
    ("build-disk-binary", ["build", "edges.bin", "disk-bin", "--format", "disk",
                           "--chunk-edges", "500"]),
    ("compact-npz", ["compact", "graph.npz", "recompact.npz", "--order",
                     "degree", "--codec", "auto"]),
    ("compact-natural", ["compact", "graph.npz", "natural.npz", "--order",
                         "natural", "--segment-bytes", "512"]),
    ("compact-disk", ["compact", "graph.npz", "compact-disk", "--format",
                      "disk", "--order", "degree"]),
    ("query-neighbors", ["query", "graph.npz", "neighbors", "1", "2", "3"]),
    ("query-edge", ["query", "disk-bin", "edge", "1", "74"]),
    ("query-edge-absent", ["query", "graph.npz", "edge", "1", "1"]),
    ("query-shards", ["query", "graph.npz", "--shards", "4", "neighbors",
                      "1", "2", "3"]),
    ("query-writes-save", ["query", "graph.npz", "--writes", "500",
                           "--compact-watermark", "200", "--save", "lsm.npz",
                           "neighbors", "1", "2", "3"]),
    ("query-save-over-disk", ["query", "disk-bin", "--writes", "50", "--save",
                              "lsm-disk.npz", "neighbors", "1"]),
    ("query-lsm", ["query", "lsm.npz", "neighbors", "1", "2", "3"]),
    ("query-cache", ["query", "graph.npz", "--cache-elements", "5000",
                     "neighbors", "0", "0", "1"]),
    ("query-reordered-disk", ["query", "disk-text", "neighbors", "1", "2", "3"]),
    ("query-compact-disk", ["query", "compact-disk", "neighbors", "1", "2", "3"]),
    *[(f"info-{name}", ["info", name]) for name in _STORES],
    *[(f"info-json-{name}", ["info", name, "--json"]) for name in _STORES],
    ("analyze-bfs", ["analyze", "graph.npz", "bfs", "--source", "0"]),
    ("analyze-pagerank-sweep", ["analyze", "graph.npz", "pagerank", "--max-iter",
                                "5", "--sweep", "1,2,4", "--top", "3"]),
    ("analyze-triangles", ["analyze", "graph.npz", "triangles", "--method",
                           "bisect", "-p", "2"]),
    ("serve-mono", ["serve-bench", *_SERVE, *_BY_SIZE, "--cache-elements",
                    "10000"]),
    ("serve-mono-shards", ["serve-bench", *_SERVE, *_BY_SIZE, "--shards", "4",
                           "--policy", "shed-oldest", "--workload", "uniform"]),
    ("serve-mono-input", ["serve-bench", "--input", "graph.npz", "--requests",
                          "300", *_BY_SIZE]),
    ("serve-write-fraction", ["serve-bench", *_SERVE, *_BY_SIZE,
                              "--write-fraction", "0.1",
                              "--compact-watermark", "300"]),
    ("serve-cluster", ["serve-bench", "--workers", "4", "--replicas", "2",
                       "--hedge-percentile", "75", "--nodes", "1024", "--edges",
                       "8000", "--requests", "1000", "--seed", "7"]),
    ("serve-cluster-input", ["serve-bench", "--workers", "2", "--input",
                             "disk-bin", "--requests", "500", "--seed", "7"]),
    ("serve-json", ["serve-bench", *_SERVE, *_BY_SIZE, "--json"]),
    ("serve-cluster-json", ["serve-bench", "--workers", "2", *_SERVE, "--json"]),
    ("trace-mono", ["trace", *_TRACE]),
    ("trace-cluster", ["trace", *_TRACE, "--workers", "4", "--replicas", "2",
                       "--sample-every", "4"]),
    ("trace-input", ["trace", "--input", "graph.npz", "--requests", "24",
                     "--seed", "3"]),
    ("trace-cluster-input", ["trace", "--input", "disk-text", "--workers", "2",
                             "--requests", "24", "--seed", "3"]),
    ("trace-json", ["trace", "--input", "graph.npz", "--requests", "16",
                    "--seed", "7", "--json"]),
]

#: Host wall-clock figures of the monolithic serve-bench (which runs on
#: the real clock) and the traced dispatch span's ``service_ns`` — the
#: only bytes allowed to differ between two runs of one tree.  Virtual
#: time, cost-model ns and every count are compared exactly.
WALL = re.compile(r"""(?mx)
    ^serving\ throughput\ \(coalesced\ speedup .*$
  | ^mode\ +batch\ +served\ +seconds .*\n[- ]+$      # column widths follow the values
  | (?<=^coalesced\ run\ metrics\n)counter\ +value\n[- ]+$
  | ^(?:single-request|coalesced\ \(wait) .*$
  | ^(?:(?:wait|latency|write)\ p50/p95/p99\ \(us\)|kernel\ service\ time\ \(ms\)
       |throughput\ \(req/s\)) .*$
  | ^serve\ histograms\n(?:.+\n)+
  | (?P<key>"(?:(?:wait|latency|write)_ns_p\d+|service_ns(?:_total)?|elapsed_s)":[ ]
            |"speedup":[ ](?=[^,]+,\n\ \ "single"))[-+.e\d]+
  | (?<="wait_ns_histogram":\ )\{[^}]*\}
""")


def mask(text: str) -> str:
    """*text* with every wall-clock figure replaced by ``<wall>``."""
    return WALL.sub(lambda m: (m["key"] or "") + "<wall>", text)


def _subparsers(parser, prefix):
    yield prefix, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _subparsers(child, f"{prefix} {name}")


def help_text() -> str:
    """``format_help()`` of every parser, at a fixed 80-column width."""
    from repro.cli import build_parser

    with mock.patch.dict(os.environ, COLUMNS="80"):
        return "".join(
            f"## {name}\n{parser.format_help()}\n"
            for name, parser in _subparsers(build_parser(), "repro")
        )


def _digest(path: Path) -> str:
    """Content hash of a saved store: arrays of an ``.npz`` (the zip
    container carries timestamps), every file of a store directory."""
    h = hashlib.sha256()
    if path.is_dir():
        for child in sorted(path.iterdir()):
            h.update(child.name.encode())
            h.update(child.read_bytes())
    else:
        with np.load(path) as data:
            for key in sorted(data.files):
                arr = data[key]
                h.update(f"{key}:{arr.dtype.str}:{arr.shape}".encode())
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_matrix() -> dict:
    """Run :data:`MATRIX` in a fresh directory; ``{"rows", "artifacts"}``."""
    from repro.cli import main

    rows, home = {}, os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-cli-") as tmp:
        os.chdir(tmp)
        try:
            for name, argv in MATRIX:
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = main(list(argv))
                rows[name] = {"rc": rc, "stdout": mask(out.getvalue())}
            artifacts = {
                p.name: _digest(p) for p in sorted(Path(tmp).iterdir())
                if p.is_dir() or p.suffix == ".npz"
            }
        finally:
            os.chdir(home)
    return {"rows": rows, "artifacts": artifacts}


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    DATA.mkdir(exist_ok=True)
    HELP_GOLDEN.write_text(help_text())
    MATRIX_GOLDEN.write_text(json.dumps(run_matrix(), indent=1) + "\n")
    print(f"wrote {HELP_GOLDEN} and {MATRIX_GOLDEN}")
