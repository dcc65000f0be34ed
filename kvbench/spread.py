#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the bounds are checked.

    python3 kvbench/spread.py [--runs 10] [--seed0 1] [workload ...]

Runs `kvbench/run.py` once per seed for each workload (default: every
workload in BENCHMARK.json), then prints for each end-to-end metric its
median and the spread (Q3 - Q1) / median of the runs, with Python's
statistics.quantiles(values, n=4). A spread above a third of the
metric's bound is flagged "WIDE"; setup_s is compared on its median
only. Exits nonzero if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            seed = args.seed0 + i
            t0 = time.monotonic()
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            took = time.monotonic() - t0
            if out.returncode != 0:
                sys.stderr.write(out.stdout[-2000:] + out.stderr[-2000:])
                print(f"{w} seed {seed}: exit {out.returncode}")
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {seed}: {took:.1f} s, ops_per_s "
                  f"{result['metrics']['ops_per_s']['value']:.0f}",
                  flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s" and spread > bounds[name] / 3:
                flag = "  WIDE"
            print(f"  {w:18s} {name:14s} median {med:14.4f} spread "
                  f"{spread:7.4f} bound {bounds[name]:.2f}{flag}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
