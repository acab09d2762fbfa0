#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
`batbench` driver (perfbench/CMakeLists.txt: the library sources plus
perfbench/src) under $CARGO_TARGET_DIR/perfbench (default .bench_build);
later calls only re-check it. The last stdout line is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports every end-to-end metric of BENCHMARK.json, --trace 1
every per-layer metric. --smoke runs every workload (serve-durable too)
at a tiny size in both modes and checks that each metric of
BENCHMARK.json prints with its unit and that every output verified; it
exits non-zero otherwise.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for start-up and clean-up.
RUN_TIMEOUT_S = 170
# Every workload the driver runs; BENCHMARK.json gates all but
# serve-durable (README.md, measured spread).
WORKLOADS = ["grid", "serve", "serve-durable", "analysis"]


def target_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    build_dir = os.path.join(target_dir(), "build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "batbench")


def run_driver(binary, workload, seed, seconds, trace, smoke=False, capture=False):
    workdir = os.path.join(target_dir(), "work-%d" % os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--workdir", workdir,
           "--out-dir", os.path.join(target_dir(), "results")]
    if smoke:
        cmd.append("--smoke")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_driver(binary, workload, 7, 1, trace, smoke=True, capture=True)
            label = "%s --trace %d" % (workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d, no result" % (label, proc.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: outputs did not verify (%d of %d failed)"
                                % (label, result["failed"], result["attempted"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ: missing %s, extra %s, unit %s" % (
                    label, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                    sorted(n for n in want if n in got and got[n] != want[n])))
            print("smoke %-26s %3d metrics, %d attempted, %d failed" % (
                label, len(got), result["attempted"], result["failed"]))
    for p in problems:
        print("SMOKE FAILURE: " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(binary)
    try:
        return run_driver(binary, args.workload, args.seed, args.seconds, args.trace).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
