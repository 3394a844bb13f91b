#!/usr/bin/env python3
"""Steadiness mode: repeat each workload over several seeds and report,
for every metric, the median, the quartiles and the relative spread
(interquartile distance over the median), next to the bound BENCHMARK.json
fixes for it.

    python3 perfbench/steady.py --runs 10 [--workloads paper-sweep,open-stream]
                                [--first-seed 1]

A spread is flagged when it reaches a third of its bound.  The exit code
is 1 when any flagged spread exceeds the bound itself (setup_s excepted).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    header = next((l for l in lines if l.startswith("# perfbench")), "")
    return header, json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    worst = 0.0
    for w in names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = []
        for s in seeds:
            header, res = run_once(w, s, seconds)
            results.append(res)
            print(f"{header}  correct={res['correct']} failed={res['failed']}/{res['attempted']}",
                  flush=True)
        print(f"\n{w}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, {seconds} s each")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and rel >= bound / 3:
                flag = "  <-- over a third of its bound"
                if name != "setup_s":
                    worst = max(worst, rel / bound)
            bound_s = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {name:34} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%} {bound_s}{flag}")
        print(flush=True)
    return 1 if worst > 1.0 else 0


if __name__ == "__main__":
    sys.exit(main())
