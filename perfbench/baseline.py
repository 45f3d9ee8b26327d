#!/usr/bin/env python3
"""Measure the benchmark's baseline and write perfbench/baseline.json.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py

Each of ROUNDS rounds runs every workload of BENCHMARK.json once, untraced,
for its run_seconds with the round's seed; the workload order rotates from
round to round so that no workload always runs first or last. Then one
traced run per workload gives the per-layer values. For each end-to-end
metric the report gives the median, the quartiles and the spread
(interquartile distance as a share of the median), next to the metric's
bound, with the machine it ran on.
"""

import json
import os
import platform
import statistics
import subprocess
import sys

ROUNDS = 10
OUT = "perfbench/baseline.json"


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {result}")
    return result


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]

    names = [w["name"] for w in bench["workloads"]]
    values = {n: {m["name"]: [] for m in bench["end_to_end"]} for n in names}
    for r in range(ROUNDS):
        order = names[r % len(names):] + names[:r % len(names)]
        for name in order:
            res = run(name, 1000 + r, seconds, 0)
            for metric, v in res["metrics"].items():
                values[name][metric].append(v["value"])
            print(f"round {r} {name}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                file=sys.stderr)

    workloads = {}
    for name in names:
        rows = {}
        for m in bench["end_to_end"]:
            xs = values[name][m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            rows[m["name"]] = {
                "unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": m["bound"], "runs": xs,
            }
        traced = run(name, 1000, seconds, 1)
        workloads[name] = {
            "end_to_end": rows,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }

    go = subprocess.run(["go", "version"], stdout=subprocess.PIPE, text=True)
    report = {
        "env": {
            "cpu_model": cpu_model(),
            "nproc": os.cpu_count(),
            "gomaxprocs": int(os.environ.get("GOMAXPROCS", os.cpu_count())),
            "go_version": go.stdout.strip(),
        },
        "rounds": ROUNDS,
        "run_seconds": seconds,
        "seeds": [1000 + r for r in range(ROUNDS)],
        "workloads": workloads,
    }
    with open(OUT, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")


if __name__ == "__main__":
    main()
