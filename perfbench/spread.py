#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check sees it.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs the benchmark once per seed for each workload (all of BENCHMARK.json's
workloads by default) and prints, per metric, the median of the runs and the
distance between their first and third quartiles as a share of the median,
next to the metric's bound. The acceptance check bounds the spread of every
end-to-end metric except setup_s, whose median alone must stay within its
bound between two sets of runs; the summary lines keep the two apart.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    worst_setup = 0.0
    for w in args.workloads:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            wall = time.time() - t0
            if res.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {res.returncode}")
            out = json.loads(res.stdout.strip().splitlines()[-1])
            if not out["correct"]:
                sys.exit(f"{w} seed {seed}: correctness gate failed")
            for m in bounds:
                values[m].append(out["metrics"][m]["value"])
            print(f"{w} seed={seed} wall_s={wall:.1f} " + " ".join(f"{m}={v[-1]:.6g}" for m, v in values.items()), flush=True)
        for m, vs in values.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med
            if m == "setup_s":
                worst_setup = max(worst_setup, spread / bounds[m])
            else:
                worst = max(worst, spread / bounds[m])
            print(f"{w:16s} {m:22s} median={med:<14.6g} spread={spread:.4f} bound={bounds[m]}"
                  f"{'' if spread < bounds[m] / 3 else '  (over a third of the bound)'}", flush=True)
    print(f"largest spread as a share of its bound, metrics whose spread is checked: {worst:.3f}")
    print(f"largest spread as a share of its bound, setup_s (only its median is checked): {worst_setup:.3f}")


if __name__ == "__main__":
    main()
