#!/usr/bin/env python3
"""Run one benchmark workload N times and report how steady it is.

Usage, from the repository root:

    python3 perfbench/steadiness.py --workload apps64 [--runs 10]
        [--first-seed 1] [--seconds S] [--save FILE]

Each run gets its own seed (first-seed, first-seed + 1, ...). For every
end-to-end metric the tool prints the median, the first and third
quartiles (statistics.quantiles(n=4)), the quartile spread and the
(max - min) spread as shares of the median, and the metric's bound from
BENCHMARK.json. A metric is steady when its quartile spread is below a
third of its bound; the exit code is 1 when any metric other than
setup_s is not. --seconds defaults to BENCHMARK.json's run_seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (exit %d): %s" %
                         (proc.returncode, " ".join(cmd)))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("run reported failed cells: " + lines[-1])
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save", help="write every run's result here (JSON)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        r = run_once(args.workload, seed, seconds)
        results.append(r)
        print("run %2d seed %d: %s" % (i + 1, seed, "  ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())),
            flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    steady = True
    print("%-14s %12s %12s %12s %8s %8s %7s  %s" %
          ("metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound",
           "steady"))
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med
        rng = (max(values) - min(values)) / med
        ok = iqr < bound / 3
        if not ok and name != "setup_s":
            steady = False
        print("%-14s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %6.0f%%  %s" %
              (name, med, q1, q3, 100 * iqr, 100 * rng, 100 * bound,
               "yes" if ok else "NO"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
