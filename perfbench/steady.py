#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed on each
workload and prints, for every end-to-end metric, the spread of its
values across seeds -- the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median -- next
to the metric's bound. A spread above a third of the bound is flagged.
With --repeat, each seed is also run a second time and every modeled
metric must read bit for bit the same.

Run from the root of the repository:

    python3 perfbench/steady.py                      # 10 seeds, all workloads
    python3 perfbench/steady.py --workloads serve --seeds 5
"""

import argparse
import json
import statistics
import subprocess
import sys

# End-to-end metrics on the modeled clock: a function of the seed alone.
MODELED = {"modeled_ops_s", "p50_us", "p99_us", "p99_us.r100k", "sustained_ops_s"}


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out.stdout}")
    declared = bench["per_layer" if trace else "end_to_end"]
    got = [(n, m["unit"]) for n, m in result["metrics"].items()]
    if got != [(m["name"], m["unit"]) for m in declared]:
        sys.exit(f"{workload} seed {seed}: metrics differ from BENCHMARK.json: {got}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--repeat", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst_ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            m = run(bench, w, seed, seconds, args.trace)
            for name, v in m.items():
                values.setdefault(name, []).append(v["value"])
            if args.repeat:
                again = run(bench, w, seed, seconds, args.trace)
                for name in MODELED & m.keys():
                    if m[name]["value"] != again[name]["value"]:
                        worst_ok = False
                        print(f"{w} seed {seed}: {name} does not repeat: "
                              f"{m[name]['value']!r} vs {again[name]['value']!r}")
        print(f"== {w}: {args.seeds} seeds")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            else:
                spread = 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
                worst_ok = False
            shown = f"bound {bound}" if bound is not None else "no bound"
            print(f"  {name:32s} median {med:14.6g}  spread {spread:7.4f}  {shown}{flag}")
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
