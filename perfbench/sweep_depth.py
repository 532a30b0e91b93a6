#!/usr/bin/env python3
"""Sweep the frames each session keeps in flight, per workload.

    python3 perfbench/sweep_depth.py [--seconds 6] [--seed 1] [workload ...]

Run from the root of the source tree.  For each workload (default: every
workload in BENCHMARK.json plus frames-sw) and each depth in 1, 2, 4, 8, 16,
32 (32 is the server's window), it runs the untraced benchmark with
--depth and prints blocks_per_s and latency_p50_us.  The depth a workload
uses is the lowest one whose blocks_per_s reaches 90% of the best in the
sweep: the least queueing that still keeps the two farm workers saturated.
By Little's law any depth beyond that adds only queue wait to the latency.
The margin is 10% because one point of the sweep repeats only within about
5%, so a smaller one would pick a depth by noise.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEPTHS = (1, 2, 4, 8, 16, 32)
SATURATED = 0.90


def run(workload, depth, seed, seconds):
    r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                        "--depth", str(depth)], cwd=ROOT, capture_output=True, text=True)
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if r.returncode != 0 or not result["correct"]:
        sys.exit("sweep_depth: %s depth %d failed:\n%s" % (workload, depth, r.stderr))
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=6)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = args.workloads or [w["name"] for w in spec["workloads"]] + ["frames-sw"]
    for w in workloads:
        rows = [(d, run(w, d, args.seed, args.seconds)) for d in DEPTHS]
        best = max(m["blocks_per_s"] for _, m in rows)
        chosen = next(d for d, m in rows if m["blocks_per_s"] >= SATURATED * best)
        print("%s (seed %d, %g s per depth)" % (w, args.seed, args.seconds))
        print("  %5s %14s %9s %14s" % ("depth", "blocks_per_s", "of best", "latency_p50_us"))
        for d, m in rows:
            print("  %5d %14.0f %9.3f %14.1f%s" % (
                d, m["blocks_per_s"], m["blocks_per_s"] / best, m["latency_p50_us"],
                "  <- lowest depth at >= %.0f%% of best" % (100 * SATURATED)
                if d == chosen else ""))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
