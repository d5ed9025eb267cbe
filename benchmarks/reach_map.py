"""Reach map: which entry sets enter each function under ``src/repro``.

A function earns its lines when a paper artifact, a serving workload, a
CLI command or a test oracle reaches it.  This script runs three entry
sets, each entry in a child process of its own with ``sys.setprofile``
(and ``threading.setprofile``) recording every code object entered:

* ``i``   — the §3 benches of DESIGN.md at smoke size
  (``pytest benchmarks/bench_X.py -p no:randomly --benchmark-disable``);
* ``ii``  — the CLI golden matrix and help (``tests/cli_golden.py``),
  plus ``benchmarks/e2e/run.py --workload W --seed 7 --rounds 3`` for
  every workload of ``BENCHMARK.json``;
* ``iii`` — tier-1 (``pytest tests``), attributed per test file.

It writes ``benchmarks/reach_map.json``: every function defined under
``src/repro`` as ``module:qualname`` with its line count and the entry
sets that reach it (empty when none does); a function that only tier-1
reaches also lists the test files that reach it.  The file records the
commit it mapped and the date.  Child processes that an entry starts
itself (``subprocess``) are not followed.

Run from the repo root (about 10 minutes on 2 cores)::

    PYTHONPATH=src python benchmarks/reach_map.py

Rerun it before retiring code: a function may go only when the map
shows that nothing but its own unit tests reaches it.
"""

from __future__ import annotations

import argparse
import ast
import datetime
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
OUT = ROOT / "benchmarks" / "reach_map.json"

#: DESIGN.md §3's regenerating benches, in its row order
SECTION3_BENCHES = [
    "bench_table2", "bench_fig6", "bench_fig7", "bench_scan", "bench_tcsr",
    "bench_queries", "bench_codecs", "bench_temporal_baselines",
    "bench_stores", "bench_chunking", "bench_algorithms",
]
_SMOKE = ["-q", "-p", "no:randomly", "-p", "no:cacheprovider",
          "--benchmark-disable"]

SETS = {
    "i": "the §3 benches at smoke size",
    "ii": "the CLI golden matrix and help, and e2e run.py --rounds 3 per workload",
    "iii": "tier-1 (pytest tests), per test file",
}


def entries(which: str) -> list[tuple[str, list[str]]]:
    """``(entry name, child argv)`` of one entry set."""
    if which == "i":
        return [(name, ["pytest", f"benchmarks/{name}.py", *_SMOKE])
                for name in SECTION3_BENCHES]
    if which == "ii":
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [("cli_golden", ["cli_golden"])] + [
            (f"e2e:{w['name']}",
             ["e2e", "--workload", w["name"], "--seed", "7", "--rounds", "3"])
            for w in spec["workloads"]
        ]
    return [("tier-1", ["pytest", "tests", "-q", "-p", "no:randomly",
                        "-p", "no:cacheprovider"])]


# -- the function inventory -------------------------------------------------
def module_of(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def inventory() -> dict[str, int]:
    """``{module:qualname: lines}`` of every function under ``src/repro``
    (qualnames as ``co_qualname`` spells them)."""
    out: dict[str, int] = {}

    def walk(node, prefix: str, module: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                key = f"{module}:{qual}"
                out[key] = out.get(key, 0) + child.end_lineno - child.lineno + 1
                walk(child, qual + ".<locals>.", module)
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".", module)
            else:
                walk(child, prefix, module)

    for path in sorted(PACKAGE.rglob("*.py")):
        walk(ast.parse(path.read_text(), str(path)), "", module_of(path))
    return out


# -- one entry, in a child process ------------------------------------------
class _Recorder:
    """Code objects entered, bucketed by the running test file."""

    def __init__(self):
        self.buckets: dict[str, set] = {}
        self.current = self.buckets.setdefault("<session>", set())

    def profile(self, frame, event, arg):
        if event == "call":
            self.current.add(frame.f_code)

    def install(self) -> None:
        threading.setprofile(self.profile)
        sys.setprofile(self.profile)

    def uninstall(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def keys(self) -> dict[str, list[str]]:
        """``{bucket: [module:qualname]}`` for code under ``src/repro``."""
        prefix = str(PACKAGE) + os.sep
        out = {}
        for bucket, codes in self.buckets.items():
            keys = {
                f"{module_of(Path(c.co_filename))}:{c.co_qualname}"
                for c in codes if c.co_filename.startswith(prefix)
            }
            if keys:
                out[bucket] = sorted(keys)
        return out


class _PerTestFile:
    """pytest plugin: point the recorder at the running test's file."""

    def __init__(self, recorder: _Recorder):
        self.recorder = recorder

    def pytest_runtest_protocol(self, item, nextitem):
        rec = self.recorder
        rec.current = rec.buckets.setdefault(item.location[0], set())

    def pytest_runtest_logfinish(self, nodeid, location):
        rec = self.recorder
        rec.current = rec.buckets["<session>"]


def run_child(argv: list[str], out_path: str) -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(ROOT)]
    recorder = _Recorder()
    kind, rest = argv[0], argv[1:]
    rc = 0
    if kind == "pytest":
        import pytest

        recorder.install()
        try:
            rc = int(pytest.main(rest, plugins=[_PerTestFile(recorder)]))
        finally:
            recorder.uninstall()
    elif kind == "cli_golden":
        from tests import cli_golden

        recorder.install()
        try:
            cli_golden.help_text()
            cli_golden.run_matrix()
        finally:
            recorder.uninstall()
    elif kind == "e2e":
        import runpy

        sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))
        sys.argv = [str(ROOT / "benchmarks" / "e2e" / "run.py"), *rest]
        recorder.install()
        try:
            runpy.run_path(sys.argv[0], run_name="__main__")
        except SystemExit as exc:
            rc = int(exc.code or 0)
        finally:
            recorder.uninstall()
    else:
        raise SystemExit(f"unknown child kind {kind!r}")
    Path(out_path).write_text(json.dumps({"rc": rc, "buckets": recorder.keys()}))
    return 0


# -- the parent ---------------------------------------------------------------
def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip()


def run_entry(name: str, argv: list[str], tmp: Path) -> dict:
    out = tmp / f"{len(list(tmp.iterdir()))}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    print(f"  {name} ...", flush=True)
    subprocess.run(
        [sys.executable, __file__, "--child", str(out), "--", *argv],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=False,
    )
    if not out.exists():
        raise SystemExit(f"entry {name} wrote no result")
    result = json.loads(out.read_text())
    print(f"  {name}: exit {result['rc']}", flush=True)
    return result


def build_map() -> dict:
    functions = inventory()
    reached: dict[str, set[str]] = {key: set() for key in functions}
    tests_of: dict[str, set[str]] = {key: set() for key in functions}
    entry_log = {}
    with tempfile.TemporaryDirectory(prefix="reach-map-") as tmpdir:
        tmp = Path(tmpdir)
        for s in SETS:
            print(f"entry set {s}: {SETS[s]}", flush=True)
            log = entry_log[s] = {"about": SETS[s], "entries": {}}
            for name, argv in entries(s):
                result = run_entry(name, argv, tmp)
                keys = set()
                for bucket, bucket_keys in result["buckets"].items():
                    for key in bucket_keys:
                        if key in functions:
                            keys.add(key)
                            if s == "iii" and bucket.startswith("tests/"):
                                tests_of[key].add(bucket)
                for key in keys:
                    reached[key].add(s)
                log["entries"][name] = {"exit": result["rc"],
                                        "functions": len(keys)}
            log["count"] = len(log["entries"])
    doc_functions = {}
    for key in sorted(functions):
        entry = {"lines": functions[key], "sets": sorted(reached[key])}
        if entry["sets"] == ["iii"]:
            entry["tests"] = sorted(tests_of[key])
        doc_functions[key] = entry
    only_iii = [k for k, v in doc_functions.items() if v["sets"] == ["iii"]]
    unreached = [k for k, v in doc_functions.items() if not v["sets"]]
    dirty = [line[3:] for line in git("status", "--porcelain").splitlines()
             if line[3:] not in ("benchmarks/reach_map.py",
                                 "benchmarks/reach_map.json")]
    return {
        "sha": git("rev-parse", "HEAD"),
        "dirty": dirty,
        "date": datetime.date.today().isoformat(),
        "python": sys.version.split()[0],
        "entry_sets": entry_log,
        "summary": {
            "functions": len(functions),
            "lines": sum(functions.values()),
            **{f"reached_by_{s}": sum(s in v["sets"] for v in doc_functions.values())
               for s in SETS},
            "only_iii": len(only_iii),
            "only_iii_lines": sum(functions[k] for k in only_iii),
            "unreached": len(unreached),
            "unreached_lines": sum(functions[k] for k in unreached),
        },
        "functions": doc_functions,
    }


def write_map(doc: dict, path: Path) -> None:
    """JSON with one line per function, so a rerun diffs line by line."""
    head = {k: v for k, v in doc.items() if k != "functions"}
    lines = json.dumps(head, indent=1)[:-2].rstrip()
    body = ",\n".join(
        f"  {json.dumps(key)}: {json.dumps(value)}"
        for key, value in doc["functions"].items()
    )
    path.write_text(f'{lines},\n "functions": {{\n{body}\n }}\n}}\n')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(OUT))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("rest", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_child(args.rest, args.child)
    doc = build_map()
    write_map(doc, Path(args.out))
    print(json.dumps(doc["summary"], indent=1))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
