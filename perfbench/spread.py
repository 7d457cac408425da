#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as bounds are judged.

Usage (from the repository root):
  python3 perfbench/spread.py [--runs 10] [--first-seed 1]
                              [--workloads submit_tcp,stream_tcp,pit_search]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
on each workload with the run length from BENCHMARK.json, then prints, per
workload and end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median, the
metric's bound and the spread as a share of the bound, plus the share of
failed operations. Exits non-zero when a run fails or reports an incorrect
output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed_shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                ok = False
                continue
            res = json.loads(proc.stdout.strip().split("\n")[-1])
            if not res["correct"]:
                print(f"{workload} seed {seed}: incorrect output")
                ok = False
            failed_shares.append(res["failed"] / res["attempted"])
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={values[n][-1]:.6g}" for n in bounds), flush=True)
        print(f"\n{workload}: {len(failed_shares)} runs, failed share "
              f"{sorted(set(failed_shares))}")
        print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {name:<14} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bounds[name]:6.2f} "
                  f"{spread / bounds[name]:12.3f}")
        print(flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
