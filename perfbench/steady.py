#!/usr/bin/env python3
"""Steadiness check for the benchmark.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs each workload `--runs` times, each with its own seed, with tracing
off and the run length from BENCHMARK.json. For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median against the metric's bound, and it checks that the share
of failed operations is the same in every run. Exits 1 when a spread
exceeds its bound, an answer is wrong or the failed shares differ. It also
prints the mean wall time of a run, and from it the time of a comparison
of two commits (4 + 22 runs per workload, builds not included). The runs
of each workload are kept in .work/steady-<workload>.json.
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


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def run_once(workload, seed, seconds):
    """Returns the result of one run and its wall time in seconds."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    return json.loads(proc.stdout.strip().split("\n")[-1]), time.monotonic() - t0


def report(workload, runs, walls, bounds):
    """Prints the table for one workload; returns True when it is steady enough."""
    ok = True
    print(f"\n{workload}: {len(runs)} runs, {statistics.mean(walls):.1f} s each on average")
    print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for name, bound in bounds.items():
        q1, med, q3, s = spread([r["metrics"][name]["value"] for r in runs])
        verdict = "" if s <= bound / 3 else " (over a third of the bound)" if s <= bound else " TOO WIDE"
        if s > bound:
            ok = False
        print(f"  {name:16} {med:12.6g} {q1:12.6g} {q3:12.6g} {s:8.2%} {bound:6.2f} {s / bound:12.2f}{verdict}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    correct = all(r["correct"] for r in runs)
    print(f"  failed share per run: {shares}; all correct: {correct}")
    return ok and len(shares) == 1 and correct


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    per_workload = []
    for w in a.workload or names:
        runs, walls = zip(*(run_once(w, a.first_seed + i, bench["run_seconds"]) for i in range(a.runs)))
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        with open(os.path.join(HERE, ".work", f"steady-{w}.json"), "w") as fh:
            json.dump(runs, fh)
        steady &= report(w, runs, walls, bounds)
        per_workload.append(statistics.mean(walls))
    if len(per_workload) == len(names):
        total = 22 * sum(per_workload) + 4 * statistics.mean(per_workload)
        print(f"\na comparison of two commits would take about {total:.0f} s, builds not included")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
