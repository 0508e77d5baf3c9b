#!/usr/bin/env python3
"""Run the benchmark several times per workload, each with another seed, and
report each metric's median and its spread: the distance between the first
and third quartiles as a share of the median.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--trace 0] [--seed0 100] [workload ...]

With no workload named, every workload in BENCHMARK.json is run. A metric
whose spread exceeds a third of its bound in BENCHMARK.json is flagged.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys

# A printed value that is not a JSON metric: "  name = value unit".
NOTE = re.compile(r"^\s+([A-Za-z][\w.-]*) = (-?[0-9.eE+-]+) (\S+)$")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--seed0", type=int, default=100, help="seed of the first run")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    declared = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    steady = True
    for workload in workloads:
        values = {}
        notes = {}
        for i in range(args.runs):
            seed = args.seed0 + i
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
                sys.exit(1)
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect\n{out.stdout}")
                sys.exit(1)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for line in lines[:-1]:
                match = NOTE.match(line)
                if match:
                    notes.setdefault(match[1], []).append(float(match[2]))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of its bound"
                steady = False
            print(f"  {workload:18} {name:28} median {med:<14.6g} spread {spread:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        for name, vals in notes.items():
            if len(vals) != args.runs:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {workload:18} {name:28} median {med:<14.6g} spread {spread:.4f} (printed only)")
    sys.exit(0 if steady else 2)


if __name__ == "__main__":
    main()
