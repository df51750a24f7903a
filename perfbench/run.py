#!/usr/bin/env python3
"""Build and run the profiler benchmark (perfbench/perf.ml).

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig5-serial --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

A single workload forwards its arguments to perf.exe; its last stdout
line is the result JSON.  `--workload all` runs the four workloads one
process each and prints their lines.  `--smoke` runs every workload
once on its smallest inputs, in both modes, and checks that each result
carries every metric BENCHMARK.json names with its unit and that every
output check passed.  The exit code is non-zero whenever a build, a run
or an output check fails, including a result with "correct": false.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["fig5-serial", "fig5-parallel", "tasks-dag", "ddpd-submit"]
EXE = os.path.join("_build", "default", "perfbench", "perf.exe")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: run from the root of a checkout of the profiler")
    # --cache=disabled keeps every build product inside the checkout.
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled", "--display=quiet",
         "./perfbench/perf.exe"],
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        sys.exit("perfbench: build failed")


def run_one(workload, seed, seconds, trace, smoke=False):
    """Run one workload in its own process; return (exit code, result)."""
    cmd = [EXE, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result, lines


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, _ = run_one(workload, 1, 0, trace, smoke=True)
            problems = []
            if code != 0 or result is None:
                problems.append(f"exit {code}, no result")
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append("output check failed")
                metrics = result["metrics"]
                for name, unit in expected_metrics(trace).items():
                    if name not in metrics:
                        problems.append(f"missing {name}")
                    elif metrics[name]["unit"] != unit:
                        problems.append(f"{name} in {metrics[name]['unit']}, not {unit}")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload or --smoke is required")
    build()
    if args.smoke:
        return smoke()
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code, result, lines = run_one(workload, args.seed, args.seconds, args.trace)
        if args.workload != "all" and lines:
            print(lines[-1])
        if code != 0 or result is None or not result["correct"]:
            worst = 1
    return worst


if __name__ == "__main__":
    sys.exit(main())
