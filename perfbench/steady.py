#!/usr/bin/env python3
"""Steadiness tool: runs one workload repeatedly, one seed per run, and
prints each metric's median, quartiles and spread.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds 20] [--trace 0|1]

Run from the root of a checkout. The spread is (Q3 - Q1) / median with
the quartiles of statistics.quantiles(values, n=4); the bound column
comes from BENCHMARK.json. A spread at or under a third of its bound is
marked "ok", under the bound "near", above it "OVER" (setup_s's spread
is not gated, only its median). Exits 1 when a run fails.
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
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={m['value']:.4g}" for k, m in
                         result["metrics"].items()
                         if k in bounds), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}, {args.runs} runs of {seconds} s, "
          f"trace={args.trace}")
    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (
            vs[0], vs[0], vs[0])
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None:
            mark = ("ok" if spread <= bound / 3 else
                    "near" if spread <= bound else "OVER")
        print(f"{name:36} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bound if bound is not None else '':>6} "
              f"{mark} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
