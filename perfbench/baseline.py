#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1]
        [--workloads corpus-ingest,...] [--out perfbench/baseline.json]

Run from the root of a checkout. Reads BENCHMARK.json for the command,
run length, workloads and end-to-end metrics; runs each workload once
per seed (untraced); prints, per workload and metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound. With --out it also
writes all of that, every value and the provenance of the first run
as JSON -- the committed seed baseline is made this way.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.exit("baseline: %s seed %d failed (exit %d)"
                 % (workload, seed, run.returncode))
    provenance = None
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    return json.loads(lines[-1]), provenance


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    metrics = spec["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    summary = {}
    provenance = None
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds:
            result, prov = run_once(spec, workload, seed)
            provenance = provenance or prov
            if not result["correct"] or result["failed"]:
                sys.exit("baseline: %s seed %d reported incorrect output"
                         % (workload, seed))
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.4g" % (k, v[-1]) for k, v in values.items())),
                flush=True)
        summary[workload] = {}
        for m in metrics:
            stats = summarise(values[m["name"]])
            stats["unit"] = m["unit"]
            summary[workload][m["name"]] = stats
            print("  %-18s median %.4g  q1 %.4g  q3 %.4g  spread %.3f"
                  "  (bound %.2f)" % (m["name"], stats["median"], stats["q1"],
                                      stats["q3"], stats["spread"],
                                      m["bound"]), flush=True)

    if args.out:
        if provenance:
            for key in ("workload", "seed", "traced"):
                provenance.pop(key, None)
        with open(args.out, "w") as handle:
            json.dump({"provenance": provenance,
                       "run_seconds": spec["run_seconds"],
                       "seeds": seeds,
                       "workloads": summary}, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":
    main()
