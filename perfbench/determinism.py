#!/usr/bin/env python3
"""Determinism self-test for perfbench.

Runs the benchmark twice on one seed in each mode (end-to-end, then
traced) and fails unless every deterministic metric repeats exactly:
shipped misprediction and growth, simulator steps and events, and the
select, memo, analysis, replicate and respec counts.

usage: python3 perfbench/determinism.py [workload ...] [--seed N] [--seconds S]

Run it from the root of the repository.
"""

import argparse
import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]
WORKLOADS = ["paper-suite", "wide-cfg", "drift-respec"]
END_TO_END = ["mispredict_pct", "size_growth"]
COUNT_PREFIXES = ("select.", "memo.", "respec.", "replicate.")
COUNTS = ["sim.steps", "sim.events", "analysis.diags"]


def run(workload, seed, seconds, trace):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(COMMAND + args, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: run reported incorrect outputs")
    return result["metrics"]


def deterministic(name, unit):
    if name in END_TO_END or name in COUNTS:
        return True
    return name.startswith(COUNT_PREFIXES) and unit == "count"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*", default=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1)
    opts = parser.parse_args()
    failed = False
    for workload in opts.workloads:
        for trace in (0, 1):
            a = run(workload, opts.seed, opts.seconds, trace)
            b = run(workload, opts.seed, opts.seconds, trace)
            checked = [k for k, v in a.items() if deterministic(k, v["unit"])]
            differ = [k for k in checked if a[k]["value"] != b[k]["value"]]
            status = "FAIL" if differ else "ok"
            print(f"{status}: {workload} --trace {trace}: {len(checked)} metrics checked"
                  + (f", differ: {', '.join(differ)}" if differ else ""))
            failed |= bool(differ)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
