"""Alternated A/B pairs of the end-to-end benchmark, judged as a perf claim.

Runs ``benchmarks/e2e/run.py --workload W --seed S`` in two source trees
(A, the parent, and B, the change), one pair per seed on consecutive
seeds, each run in a process of its own and each tree using its own
``src/``.  Which side runs first alternates from pair to pair, so a
drift of the machine does not favour one side.  Prints every run's
metrics and failed count, then each side's median and quartiles of the
claimed metric, B's win count, and the verdict ROADMAP.md's yardstick
asks of a speed-up claim: B better on at least 9 of 10 pairs (the same
share of any other count), and the median gap larger than the distance
between A's quartiles.

    python3 benchmarks/ab_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload serve_mixed --pairs 10 --seed 9501 [--metric ops_per_s]

Extra ``run.py`` options go after ``--`` (``-- --trace 1 --seconds 6``);
with ``--trace 1`` name a per-layer metric.  ``--out DIR`` also writes
``DIR/a.json`` and ``DIR/b.json`` in ``run.py --out``'s format, so
``run.py --compare DIR/a.json DIR/b.json`` judges them against the
bounds.  Exit status: 0 when every run succeeded and the claim holds.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run_once(tree: str, workload: str, seed: int, extra: list[str]) -> dict:
    """One ``run.py`` run in *tree*: its JSON line plus the exit code."""
    command = [sys.executable, str(Path(tree) / "benchmarks" / "e2e" / "run.py"),
               "--workload", workload, "--seed", str(seed), *extra]
    done = subprocess.run(command, capture_output=True, text=True, cwd=tree)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if done.returncode != 0:
        print(f"  exit {done.returncode}: {done.stderr.strip()[-400:]}")
    return {"seed": seed, "exit": done.returncode, **result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median, upper quartile (``run.py``'s estimator)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def judge(a: list[float], b: list[float], better: str) -> tuple[int, bool, str]:
    """B's wins, whether the claim holds, and one line saying why."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    need = math.ceil(0.9 * len(a))
    low, med_a, high = quartiles(a)
    gap = sign * (statistics.median(b) - med_a)
    holds = wins >= need and gap > high - low
    why = (f"B better on {wins}/{len(a)} pairs (needs {need}); median gap "
           f"{gap:+.6g} against A's IQR {high - low:.6g}")
    return wins, holds, why


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", help="the parent's tree")
    parser.add_argument("tree_b", help="the change's tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="first seed")
    parser.add_argument("--metric", default="ops_per_s", help="the claimed metric")
    parser.add_argument("--out", help="directory for a.json / b.json")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args, extra = parser.parse_args(argv[:split]), argv[split + 1:]
    if args.metric not in BETTER:
        parser.error(f"unknown metric {args.metric!r}")

    runs = {"a": [], "b": []}
    trees = {"a": args.tree_a, "b": args.tree_b}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        print(f"pair {i + 1} seed {seed}: {order[0].upper()} first")
        for side in order:
            run = run_once(trees[side], args.workload, seed, extra)
            runs[side].append(run)
            shown = "  ".join(f"{name}={m['value']:.6g}"
                              for name, m in run.get("metrics", {}).items())
            print(f"  {side.upper()}  failed={run.get('failed')}  {shown}", flush=True)

    ok = all(r["exit"] == 0 and r.get("failed") == 0 for side in runs.values() for r in side)
    complete = [j for j in range(args.pairs)
                if all(args.metric in runs[s][j].get("metrics", {}) for s in runs)]
    values = {s: [runs[s][j]["metrics"][args.metric]["value"] for j in complete]
              for s in runs}
    print(f"\n{args.workload} {args.metric} ({BETTER[args.metric]} is better), "
          f"{len(complete)} complete pairs")
    for side in ("a", "b"):
        if values[side]:
            low, mid, high = quartiles(values[side])
            print(f"  {side.upper()}  median {mid:.6g}  quartiles {low:.6g} .. {high:.6g}")
    holds = False
    if complete:
        _, holds, why = judge(values["a"], values["b"], BETTER[args.metric])
        print(f"  {why}")
    print(f"  verdict: {'claim holds' if holds else 'claim does not hold'}"
          f"{'' if ok else ' (a run failed)'}")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for side in runs:
            (out / f"{side}.json").write_text(json.dumps(
                {"seed": args.seed, "runs": {args.workload: runs[side]}}, indent=1))
    return 0 if ok and holds else 1


if __name__ == "__main__":
    sys.exit(main())
