#!/usr/bin/env python3
"""Steadiness check: what the driver does before it accepts the benchmark.

Runs BENCHMARK.json's command ten times per workload, each time with
another seed, and prints for every end-to-end metric the distance between
the first and third quartile of its ten values as a share of their median,
beside the metric's bound. A spread at or above a third of the bound is
marked: the driver accepts up to the bound, but a benchmark that close to
it will not repeat.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--out FILE]

Run from the repository root. Every run made is kept in the output file
(default benchmark/results/spread.json); none is dropped.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="benchmark/results/spread.json")
    parser.add_argument("--workload", action="append", help="only these workloads")
    args = parser.parse_args()

    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    record = {"runs": []}
    worst = 0.0
    for workload in names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            started = time.monotonic()
            done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed, wall_s=time.monotonic() - started)
            record["runs"].append(result)
            if done.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: FAILED ({result['failed']} of {result['attempted']})")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bound)
            mark = "" if spread < bound / 3 else "  <-- not under a third of the bound"
            print(f"{workload:<16} {name:<16} median {median:>14.6g}  spread {spread:6.2%}  bound {bound:4.0%}{mark}")
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    print(f"worst spread is {worst:.0%} of its bound; wrote {out}")
    return 0 if worst < 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
