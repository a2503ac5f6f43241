#!/usr/bin/env python3
"""Runs every workload N times in alternating order and summarizes.

    python3 perfbench/repeat.py --runs 10 --seconds 20 [--seed 1]

Every run is untraced. Run i uses seed `--seed + i`; odd passes visit the
workloads in reverse order, so a slow stretch of the host does not always
land on the same workload. For every workload and metric it prints the median, the first and
third quartiles (Python's statistics.quantiles, n=4), the interquartile
spread and (max - min), both as a share of the median, and the share of
failed operations. The bounds in BENCHMARK.json are set from these figures.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_small", "serve_large", "train_pos", "stream_sessions")


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, proc.returncode))
    return json.loads(lines[-1]), lines[:-1]


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    results = {w: [] for w in WORKLOADS}
    for i in range(args.runs):
        order = WORKLOADS if i % 2 == 0 else tuple(reversed(WORKLOADS))
        for w in order:
            result, notes = run_once(w, args.seed + i, args.seconds)
            results[w].append(result)
            if result["failed"] or not result["correct"]:
                for line in notes:
                    print("  " + line, file=sys.stderr)
            print("run %d %s seed %d correct %s failed %d/%d" %
                  (i, w, args.seed + i, result["correct"], result["failed"],
                   result["attempted"]), file=sys.stderr)

    for w in WORKLOADS:
        rows = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in rows})
        print("%s: %d runs, all correct: %s, failed share(s): %s" %
              (w, len(rows), all(r["correct"] for r in rows), shares))
        print("  %-26s %14s %14s %14s %8s %8s" %
              ("metric", "median", "q1", "q3", "iqr/med", "rng/med"))
        for name in sorted(rows[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rows]
            med, q1, q3, iqr, rng = summarize(vals)
            print("  %-26s %14.6g %14.6g %14.6g %8.3f %8.3f" %
                  (name, med, q1, q3, iqr, rng))
    return 0


if __name__ == "__main__":
    sys.exit(main())
