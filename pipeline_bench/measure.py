#!/usr/bin/env python3
"""Runs the pipeline benchmark over several seeds and records a baseline set.

Run from the repository root:

    python3 pipeline_bench/measure.py --label first --seeds 10
    python3 pipeline_bench/measure.py --label second --seeds 10

Each (workload, seed) pair runs the command of BENCHMARK.json once, untraced.
For every end-to-end metric the script prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median (the spread), next to the metric's bound. The set is stored under its
label in ``pipeline_bench/baselines.json`` with ``machine_cores``; when a
``first`` set exists, a later set's medians are compared against it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINES = os.path.join(ROOT, "pipeline_bench", "baselines.json")


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stdout}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: output check failed:\n{out.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
    }


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if metric["better"] == "lower":
        return second / first - 1.0
    return 1.0 - second / first


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="name of the baseline set, e.g. first")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", help="subset of workloads (default: all)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    try:
        with open(BASELINES) as f:
            baselines = json.load(f)
    except FileNotFoundError:
        baselines = {"sets": {}}
    baselines["machine_cores"] = os.cpu_count()
    baselines["run_seconds"] = bench["run_seconds"]
    current = baselines["sets"].setdefault(args.label, {})
    reference = baselines["sets"].get("first") if args.label != "first" else None

    ok = True
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    for workload in workloads:
        runs = [run_once(bench, workload, s) for s in seeds]
        current[workload] = {}
        print(f"{workload} ({len(runs)} seeds)")
        for m in metrics:
            s = summarise([r[m["name"]] for r in runs])
            s["seeds"] = [seeds.start, seeds.stop - 1]
            current[workload][m["name"]] = s
            line = (f"  {m['name']:<18} median {s['median']:<14.6g} "
                    f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                    f"bound {m['bound']}")
            if m["name"] != "setup_s" and s["spread"] > m["bound"]:
                ok = False
                line += "  SPREAD OVER BOUND"
            elif s["spread"] > m["bound"] / 3:
                line += "  (spread above a third of the bound)"
            if reference and workload in reference:
                delta = worse_by(m, reference[workload][m["name"]]["median"], s["median"])
                line += f"  vs first {delta:+.4f}"
                if delta > m["bound"]:
                    ok = False
                    line += " WORSE THAN BOUND"
            print(line)
        with open(BASELINES, "w") as f:
            json.dump(baselines, f, indent=2)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
