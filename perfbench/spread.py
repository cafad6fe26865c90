#!/usr/bin/env python3
"""Runs two sets of benchmark runs of the same build and reports, for
each end-to-end metric of each workload, the median, the quartiles and
the spread against the metric's bound.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--seconds S]

Run from the root of a checkout. Every run uses its own seed: set 1 uses
seeds 1 to RUNS, set 2 the next RUNS. For each set the spread of a metric
is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median; it should stay
within the metric's bound, and well below it. Between the two sets, the
second median may not be worse than the first by more than the bound, and
the share of failed operations must be exactly equal. The script exits
with 1 if any of these does not hold for any metric, `setup_s` included.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 1


def run_once(spec, workload, seed, seconds, trace=0):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w] or [
        w["name"] for w in spec["workloads"]
    ]
    ok = True
    for workload in workloads:
        sets = []
        for k in range(SETS):
            runs = []
            for i in range(args.runs):
                seed = FIRST_SEED + k * args.runs + i
                result = run_once(spec, workload, seed, seconds)
                ok &= result["correct"]
                runs.append(result)
            sets.append(runs)
        print(f"== {workload}: {SETS} sets of {args.runs} runs, {seconds} s each")
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        print(f"   failed share of attempted: {sorted(shares)}")
        ok &= len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            medians = []
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3, spread = summarize(values)
                medians.append(q2)
                flag = "ok" if spread <= bound / 3 else ("WIDE" if spread <= bound else "OVER")
                if spread > bound:
                    ok = False
                print(
                    f"   {name:<16} set {k + 1}: median {q2:12.4f}  q1 {q1:12.4f}  "
                    f"q3 {q3:12.4f}  spread {spread:6.3f} / bound {bound}  {flag}"
                )
                if args.verbose:
                    print("      " + " ".join(f"{v:.4g}" for v in values))
            for a, b in zip(medians, medians[1:]):
                worse = (b - a) / a if lower else (a - b) / a
                if worse > bound:
                    ok = False
                print(f"   {name:<16} second set worse by {worse:+.3f} (bound {bound})")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
