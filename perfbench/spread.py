#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --runs 10 [--workloads grid,serve] [--seconds 12]

Runs each workload once per seed (1..runs), untraced, and prints for every
end-to-end metric its median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. Run from the repository
root; it builds through run.py.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    binary = run.build()
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        steal = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = run.run_driver(binary, workload, seed, seconds, 0, capture=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            steal += [float(l.split(":")[1].split("%")[0]) for l in lines if l.startswith("# cpu steal")]
            if not result["correct"]:
                print("%s seed %d: correct=false (%d failed)" % (workload, seed, result["failed"]))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("== %s (%d runs, %g s; cpu steal median %.1f%%, max %.1f%%)" % (
            workload, args.runs, seconds, statistics.median(steal) if steal else 0.0,
            max(steal) if steal else 0.0))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            share = (q[2] - q[0]) / abs(med) if med else float("inf")
            limit = m["bound"] / 3
            if m["name"] != "setup_s":
                worst = max(worst, share / limit)
            print("  %-18s median %-12.6g spread %6.2f%%  (bound/3 %5.2f%%)%s" % (
                m["name"], med, 100 * share, 100 * limit,
                "  OVER" if share > limit and m["name"] != "setup_s" else ""))
    print("worst spread / (bound/3), setup_s excluded: %.2f" % worst)


if __name__ == "__main__":
    main()
