#!/usr/bin/env python3
"""Repeat mode: run one workload N times with consecutive seeds, each
untraced and for BENCHMARK.json's run_seconds, and print each metric's
median, quartiles and spread (interquartile distance over the median),
the figures the bounds in BENCHMARK.json are set from.

    python3 perfbench/repeat.py --workload notify --runs 10 [--first-seed 1]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    with open("BENCHMARK.json") as f:
        seconds = str(json.load(f)["run_seconds"])
    values, shares = {}, []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        cmd = ["bash", "perfbench/run.sh", "--workload", a.workload, "--seed", str(seed),
               "--seconds", seconds, "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
        lines = out.strip().splitlines()
        last = json.loads(lines[-1])
        host = json.loads(lines[-2])["report"]["host"]
        shares.append(last["failed"] / last["attempted"])
        print(f"seed {seed}: correct={last['correct']} attempted={last['attempted']} "
              f"failed={last['failed']} stolen_windows={host['stolen_windows']:.3f} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()),
              flush=True)
        for k, v in last["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for k, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{k:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f}")
    print(f"failed shares: {sorted(set(shares))}")


if __name__ == "__main__":
    sys.exit(main())
