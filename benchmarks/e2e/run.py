"""End-to-end benchmark of the composed stack.  See README.md.

One run of one workload (the form the benchmark driver calls)::

    python3 benchmarks/e2e/run.py --workload serve_cold --seed 7 --seconds 10 --trace 0

prints a report, then one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric of BENCHMARK.json (``--trace 0``) or every per-layer
metric (``--trace 1``).  Without ``--workload`` every workload is run,
``--repeat`` times on consecutive seeds, each run in a process of its
own, and the medians and spreads are tabulated (``--out`` saves them).
``--compare A.json B.json`` judges two such files against the bounds.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from noise import (
    calibrate_ms, peak_rss_mb, q25, recycle_heap, slowdown, spin_probe_ms, verdict,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))  # workloads.py and spans.py import the program

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: set-ups per run (setup_s is their median) and the fewest rounds of a
#: run (the first is the warm-up and is dropped)
SETUPS = 3
MIN_ROUNDS = 3
TRACED_ROUNDS = 3
#: calibration kernel runs before the first round (or set-up) and after each
CALIBRATIONS = 6


def domain(name: str) -> str:
    """Time domain of a metric: host wall clock, ``ManualClock`` virtual
    time, or a count that repeats exactly for a seed."""
    if "virt_" in name or name == "cluster.scale_1_to_2":
        return "virtual"
    if name.endswith(("_s", "_us", "_ms", "_ratio")) or name in (
        "harness.trace_overhead_frac", "harness.share_sum_frac",
        "harness.calib_ms_q25", "harness.calib_ms_max", "harness.slowdown",
    ):
        return "wall"
    return "count"


def report(title: str, values: dict, spec: dict, raw: dict | None = None,
           spread: dict | None = None) -> None:
    print(title)
    for name, value in values.items():
        line = f"  {name:34s} {value:16.4f} {spec[name]['unit']:8s} {domain(name):8s}"
        if raw and raw[name] != value:
            line += f" uncalibrated {raw[name]:.4f}"
        if spread and name in spread:
            low, mid, high = spread[name]
            line += f", rounds q25/median/max {low:.4g} / {mid:.4g} / {high:.4g}"
        print(line)


# -- one run of one workload ------------------------------------------------
def calibrate() -> list[float]:
    return [calibrate_ms() for _ in range(CALIBRATIONS)]


def run_rounds(workload, seconds: float, rounds: int | None) -> list[float]:
    """Timed rounds for *seconds* (or exactly *rounds*), the calibration
    kernel before and after each.  Returns the calibration times."""
    calibration = calibrate()
    start = perf_counter()
    r = 0
    while r < (rounds or MIN_ROUNDS) or (rounds is None and perf_counter() - start < seconds):
        workload.run_round(r)
        calibration += calibrate()
        r += 1
    return calibration


def run_plain(cls, args, workdir: Path) -> dict:
    stall_ms = spin_probe_ms()
    setup_s, setup_calibration, workload = [], calibrate(), None
    for k in range(SETUPS):
        if workload is not None:
            workload.close()
            del workload
            gc.collect()
        path = workdir / f"setup-{k}"
        path.mkdir(parents=True)
        t0 = perf_counter()
        workload = cls(args.seed, args.scale, path)
        workload.setup()
        setup_s.append(perf_counter() - t0)
        setup_calibration += calibrate()
    calibration = run_rounds(workload, args.seconds, args.rounds)
    raw = {"setup_s": statistics.median(setup_s), **workload.end_to_end()}
    # wall figures are reported as on a box running the calibration
    # kernel at its stored speed: times shrink, rates grow, by how much
    # slower this box ran while they were measured
    factor = {name: slowdown(setup_calibration if name == "setup_s" else calibration)
              for name in raw if domain(name) == "wall"}
    metrics = {
        name: value if name not in factor
        else value * factor[name] if END_TO_END[name]["better"] == "higher"
        else value / factor[name]
        for name, value in raw.items()
    }
    def over_rounds(key: str) -> tuple:
        values = workload.sample(key)
        return q25(values), statistics.median(values), max(values)

    spread = {"ops_per_s": tuple(workload.bulk_ops / t for t in over_rounds("bulk_s"))}
    print(f"{cls.name}: seed {args.seed}, scale {args.scale}, {len(workload.rounds)} rounds "
          f"(first dropped), {workload.attempted} operations checked, {workload.failed} failed")
    report("end-to-end (untraced run; wall figures calibrated):",
           metrics, END_TO_END, raw, spread)
    for key in ("svc1_p50_us", "svc1_p99_us"):
        low, mid, high = over_rounds(key)
        print(f"  {key} (one client; uncalibrated; unbounded, see README), "
              f"rounds q25/median/max {low:.4g} / {mid:.4g} / {high:.4g}")
    print(f"noise: {verdict(factor['ops_per_s'])}, calibration max {max(calibration):.1f} ms, "
          f"longest stall {stall_ms:.1f} ms, peak rss {peak_rss_mb():.0f} MB")
    workload.close()
    return result(workload.attempted, workload.failed, metrics, END_TO_END)


def run_traced(cls, args, workdir: Path) -> dict:
    from spans import Recorder
    from workloads import obs_sampled_rate

    stall_ms = spin_probe_ms()
    rounds = args.rounds or TRACED_ROUNDS
    rec = Recorder()
    calibration, attempted, failed = [], 0, 0

    def run(name: str, recorder):
        nonlocal attempted, failed
        path = workdir / name
        path.mkdir(parents=True)
        workload = cls(args.seed, args.scale, path, recorder)
        workload.setup()
        calibration.extend(run_rounds(workload, 0.0, rounds))
        attempted, failed = attempted + workload.attempted, failed + workload.failed
        return workload

    # the same rounds untraced first: the difference is the tracing overhead
    plain = run("plain", None)
    plain_bulk_s, cold_round = plain.bulk_seconds(), plain.rounds[0]
    one_client = {key: q25(plain.sample(key)) for key in ("svc1_p50_us", "svc1_p99_us")}
    plain.close()
    del plain
    gc.collect()
    traced = run("traced", rec)
    layers = traced.per_layer(cold_round)
    if cls.name == "serve_hot":
        obs_dir = workdir / "obs"
        obs_dir.mkdir()
        rate, a, f = obs_sampled_rate(args.seed, args.scale, obs_dir, rounds)
        layers["obs.sampled_qps_ratio"] = rate * plain_bulk_s / traced.bulk_ops
        attempted, failed = attempted + a, failed + f
    timed_rounds = range(1, len(traced.rounds))
    by_layer = rec.totals("layer", timed_rounds)
    driver_wall = sum(rnd["bulk_s"] + rnd["solo_s"] for rnd in traced.rounds[1:])
    layers.update({
        **one_client,
        "harness.trace_overhead_frac": traced.bulk_seconds() / plain_bulk_s - 1.0,
        "harness.share_sum_frac": sum(v[0] for v in by_layer.values()) / driver_wall,
        "harness.traced_round_s": driver_wall / len(timed_rounds),
        "harness.calib_ms_q25": q25(calibration),
        "harness.calib_ms_max": max(calibration),
        "harness.slowdown": slowdown(calibration),
        "harness.max_stall_ms": stall_ms,
        "harness.peak_rss_mb": peak_rss_mb(),
    })
    unknown = sorted(set(layers) - set(PER_LAYER))
    if unknown:
        raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    spans_file = HERE / "results" / f"spans-{cls.name}.jsonl"
    rec.dump(spans_file)
    print(f"{cls.name}: seed {args.seed}, scale {args.scale}, traced run, "
          f"{rec.count} spans -> {spans_file.relative_to(ROOT)}, "
          f"{attempted} operations checked, {failed} failed")
    print("share of the driver's wall time by layer (self time): "
          + ", ".join(f"{layer} {v[0] / driver_wall:.1%}" for layer, v in sorted(by_layer.items())))
    # a layer this workload never runs did no work: it reads zero
    metrics = {name: float(layers.get(name, 0.0)) for name in PER_LAYER}
    report("per-layer (from the traced run):",
           {k: v for k, v in metrics.items() if k in layers}, PER_LAYER)
    traced.close()
    return result(attempted, failed, metrics, PER_LAYER)


def result(attempted: int, failed: int, metrics: dict, spec: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": spec[name]["unit"]}
                    for name, value in metrics.items()},
    }


def single(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    print(f"allocator: {'heap kept and recycled' if recycle_heap() else 'default'}")
    from workloads import WORKLOADS

    workdir = HERE / "results" / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        run = run_traced if args.trace else run_plain
        outcome = run(WORKLOADS[args.workload], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


# -- every workload, repeated: medians and spreads ---------------------------
def quartile_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def sweep(args) -> int:
    runs: dict[str, list] = {name: [] for name in WORKLOAD_NAMES}
    bad = 0
    for i in range(args.repeat):
        for name in WORKLOAD_NAMES:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed + i), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--scale", str(args.scale)]
            if args.rounds:
                command += ["--rounds", str(args.rounds)]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                bad += 1
                print(f"{name} seed {args.seed + i}: exit {done.returncode}\n{done.stderr}")
            if lines and lines[-1].startswith("{"):
                runs[name].append({"seed": args.seed + i, **json.loads(lines[-1])})
    print(f"\n{'workload':12s} {'metric':34s} {'median':>14s} {'unit':8s} {'domain':8s} "
          f"{'spread':>8s} {'bound':>6s}")
    for name, results in runs.items():
        for metric in (results[0]["metrics"] if results else ()):
            values = [r["metrics"][metric]["value"] for r in results]
            bound = END_TO_END.get(metric, {}).get("bound")
            print(f"{name:12s} {metric:34s} {statistics.median(values):14.4f} "
                  f"{results[0]['metrics'][metric]['unit']:8s} {domain(metric):8s} "
                  f"{quartile_spread(values):8.2%} {'' if bound is None else format(bound, '.0%'):>6s}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "scale": str(args.scale), "runs": runs},
            indent=1))
    return 1 if bad else 0


# -- judging two sweeps -------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """B against A, per workload and end-to-end metric: ``ok``, ``worse``
    (beyond the bound) or ``unresolved`` (spread wider than the bound)."""
    a_runs = json.loads(Path(path_a).read_text())["runs"]
    b_runs = json.loads(Path(path_b).read_text())["runs"]
    worse = 0
    for name in WORKLOAD_NAMES:
        print(f"{name}")
        for metric, spec in END_TO_END.items():
            a = [r["metrics"][metric]["value"] for r in a_runs.get(name, [])]
            b = [r["metrics"][metric]["value"] for r in b_runs.get(name, [])]
            if not a or not b:
                continue
            sign = 1.0 if spec["better"] == "lower" else -1.0
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse_by = sign * (med_b - med_a) / med_a
            spread = max(quartile_spread(a), quartile_spread(b))
            all_worse = min(sign * x for x in b) > max(sign * x for x in a)
            all_better = max(sign * x for x in b) < min(sign * x for x in a)
            if worse_by > spec["bound"] and (all_worse or spread <= spec["bound"]):
                status = "worse"
                worse += 1
            elif spread > spec["bound"] and not all_better:
                status = "unresolved"
            else:
                status = "ok"
            print(f"  {metric:14s} {med_a:14.4f} -> {med_b:14.4f} {spec['unit']:6s} "
                  f"{domain(metric):7s} worse by {worse_by:+8.2%}  spread {spread:6.2%}  "
                  f"bound {spec['bound']:.1%}  {status}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--scale", type=Fraction, default=Fraction(1, 16),
                        help="fraction of pokec's size (default 1/16)")
    parser.add_argument("--rounds", type=int, help="exactly this many rounds, not --seconds")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (all-workload mode)")
    parser.add_argument("--out", help="save the all-workload results as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        return sweep(args)
    args.scale = float(args.scale)
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
