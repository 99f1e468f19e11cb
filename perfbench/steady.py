#!/usr/bin/env python3
"""Steadiness check: runs the benchmark over several seeds per workload.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                [--seconds S] [--out FILE]

For each workload and each end-to-end metric (per-layer with --trace 1) it
prints the median, the first and third quartiles (statistics.quantiles,
n=4) and the quartile spread as a share of the median, next to the metric's
bound from BENCHMARK.json.  --out writes every run's result line and the
summary as JSON (the format of perfbench/baseline/).
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


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d failed (exit %d)" % (
            workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = round(wall, 2)
    return result


def summarize(runs, specs):
    summary = {}
    for spec in specs:
        name = spec["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        entry = {"unit": spec["unit"], "median": med, "q1": q1, "q3": q3,
                 "spread": (q3 - q1) / abs(med) if med else 0.0}
        if "bound" in spec:
            entry["bound"] = spec["bound"]
        summary[name] = entry
    return summary


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace)
                for seed in parse_seeds(args.seeds)]
        summary = summarize(runs, specs)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        print("%s (%d runs, %.0f s each on average)" % (
            workload, len(runs), statistics.mean(r["wall_s"] for r in runs)))
        for name, e in summary.items():
            bound = e.get("bound")
            flag = ""
            if bound is not None:
                flag = "ok" if e["spread"] <= bound / 3 else (
                    "WITHIN BOUND" if e["spread"] <= bound else "TOO WIDE")
            print("  %-28s median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.3f"
                  "  bound %s %s" % (name, e["median"], e["q1"], e["q3"],
                                     e["spread"], bound, flag))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
