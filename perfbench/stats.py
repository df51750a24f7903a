#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, and the rule for comparing commits.

    python3 perfbench/stats.py spread [--workload W ...]
        Runs each workload 10 times, one seed per run, and prints each
        end-to-end metric's median and quartile spread (Q3 - Q1) / median,
        next to a third of its bound.  Run from the root of a checkout.

    python3 perfbench/stats.py compare PARENT CHANGE [--workload W ...]
        PARENT and CHANGE are two checkouts.  Runs 10 alternating
        parent/change pairs per workload (same seed within a pair) and
        reports, per metric, each side's median and quartiles, the change's
        wins and losses, and a verdict.  A gain: the change wins >= 9/10 of
        the pairs and the medians differ by more than the parent's Q3 - Q1.
        A regression: the change loses >= 9/10 of the pairs, or its median
        is worse by more than the metric's bound.  The pairs share the
        host's slow drift, so they can resolve changes smaller than the
        bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ["fig5-serial", "fig5-parallel", "tasks-dag", "ddpd-submit"]
# Runs per workload for a spread, and parent/change pairs for a comparison:
# the gain rule (>= 9 wins) is defined over 10 pairs.
RUNS = 10


def load_spec(root="."):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run(root, workload, seed, seconds, records=None):
    """One run's metric values; its full result file is appended to records."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    result = json.loads(r.stdout.splitlines()[-1])
    if r.returncode != 0 or not result["correct"]:
        sys.exit(f"{root}: {workload} seed {seed} failed its output checks")
    if records is not None:
        with open(os.path.join(root, "_perfbench", workload + ".json")) as f:
            records.append(json.load(f))
    return {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    spec = load_spec()
    records = {}
    for workload in args.workload or WORKLOADS:
        records[workload] = []
        rows = [run(".", workload, 1000 + i, spec["run_seconds"], records[workload])
                for i in range(RUNS)]
        with open(os.path.join("_perfbench", "spread.json"), "w") as f:
            json.dump(records, f, indent=1)
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in rows]
            q1, _, q3 = quartiles(values)
            med = statistics.median(values)
            share = (q3 - q1) / med
            flag = "" if share < m["bound"] / 3 else "  ABOVE bound/3"
            print(f"{workload:14s} {m['name']:18s} median {med:12.6g} {m['unit']:9s} "
                  f"spread {100 * share:6.2f}%  (bound/3 {100 * m['bound'] / 3:5.2f}%){flag}")


def compare(args):
    spec = load_spec(args.change)
    for workload in args.workload or WORKLOADS:
        parent, change = [], []
        for i in range(RUNS):
            seed = 2000 + i
            order = [(args.parent, parent), (args.change, change)]
            if i % 2:
                order.reverse()
            for root, acc in order:
                acc.append(run(root, workload, seed, spec["run_seconds"]))
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"
            p = [r[name] for r in parent]
            c = [r[name] for r in change]
            wins = sum(1 for a, b in zip(p, c) if (b < a if lower else b > a))
            losses = sum(1 for a, b in zip(p, c) if (b > a if lower else b < a))
            pq1, pmed, pq3 = quartiles(p)
            cq1, cmed, cq3 = quartiles(c)
            worse_by = (cmed - pmed) / pmed * (1 if lower else -1)
            if wins >= 9 and worse_by < 0 and abs(cmed - pmed) > pq3 - pq1:
                verdict = "GAIN"
            elif (losses >= 9 and worse_by > 0) or worse_by > m["bound"]:
                verdict = "REGRESSION"
            elif pq3 - pq1 > m["bound"] * pmed:
                verdict = "unresolved (parent spread exceeds the bound)"
            else:
                verdict = "no change"
            print(f"{workload:14s} {name:18s} parent {pmed:10.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cmed:10.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"wins {wins}/{len(p)} losses {losses}/{len(p)}  {verdict}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", action="append", choices=WORKLOADS)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    c.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    spread(args) if args.cmd == "spread" else compare(args)


if __name__ == "__main__":
    main()
