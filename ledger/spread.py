#!/usr/bin/env python3
"""Run-to-run spread of the ledger's end-to-end metrics, as the contract in
BENCHMARK.json is checked: each workload N times, each time with another
seed; per metric, the distance between the first and third quartile of the
N values as a share of their median, against the metric's bound.

    python3 ledger/spread.py [N] [workload ...]      (from the repo root)
"""
import json, statistics, subprocess, sys

bench = json.load(open("BENCHMARK.json"))
args = sys.argv[1:]
n = int(args.pop(0)) if args and args[0].isdigit() else 10
names = args or [w["name"] for w in bench["workloads"]]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

for name in names:
    values = {m: [] for m in bounds}
    for seed in range(1, n + 1):
        cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        assert res["correct"] and res["failed"] == 0, (name, seed, res)
        for m in bounds:
            values[m].append(res["metrics"][m]["value"])
    print(f"{name}: {n} runs")
    for m, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med
        flag = "" if spread < bounds[m] / 3 else ("  > bound/3" if spread < bounds[m] else "  > BOUND")
        print(f"  {m:24s} median {med:14.6g}  spread {100*spread:6.2f}%  bound {100*bounds[m]:g}%{flag}")
        if m in ("wall_s", "setup_s"):
            print("    values:", " ".join(f"{x:.4g}" for x in xs))
