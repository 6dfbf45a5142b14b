#!/usr/bin/env python3
"""Compare two checkouts of scmp on the benchmark, run as alternating pairs.

    python3 scmpbench/compare.py --parent ../scmp-parent --change . \\
        [--workloads grid,fabric,server] [--pairs 10] [--out compare.json]

Pair i runs scmpbench/run.py once in each checkout with the same
workload and seed i + 1, for BENCHMARK.json's run_seconds; which side
runs first alternates from pair to pair.
For every workload and end-to-end metric the tool reports each side's
median and quartiles, the change's win fraction over the pairs (ties
count for neither), and a verdict:

  better      at least ten pairs ran, the change wins at least 9/10 of
              them, and the medians differ by more than the parent's own
              quartile spread;
  worse       the change's median is worse than the parent's by more
              than the metric's bound in BENCHMARK.json;
  unresolved  either side's quartile spread is wider than the bound, so
              "no worse" cannot be shown, unless every change run beats
              every parent run;
  same        none of the above: within the bound.

Each pair also compares the two sides' result digests at that seed;
a simulated-timing change shows up there, not in the host metrics.
Both checkouts build their own harness on first use.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_side(checkout, workload, seed):
    """One benchmark run in @checkout, for its BENCHMARK.json's
    run_seconds; returns (result JSON, digest)."""
    done = subprocess.run(
        [sys.executable, "scmpbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"compare: benchmark failed in {checkout}")
    digest = next((line.split()[1] for line in lines
                   if line.strip().startswith("digests ")), None)
    return json.loads(lines[-1]), digest


def spread(values):
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / statistics.median(values)


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    win_frac = wins / len(parent)
    gain = (p_med - c_med) / p_med if lower else (c_med - p_med) / p_med
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if len(parent) >= 10 and win_frac >= 0.9 and gain > spread(parent):
        result = "better"
    elif -gain > bound:
        result = "worse"
    elif (spread(parent) > bound or spread(change) > bound) and \
            not all_better:
        result = "unresolved"
    else:
        result = "same"
    return {"parent_median": p_med, "change_median": c_med,
            "parent_quartiles": statistics.quantiles(parent, n=4,
                                                     method="inclusive")[::2],
            "change_quartiles": statistics.quantiles(change, n=4,
                                                     method="inclusive")[::2],
            "wins": wins, "losses": losses, "pairs": len(parent),
            "win_frac": win_frac, "change": gain, "bound": bound,
            "verdict": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--workloads", default="grid,fabric,server")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    report = {"pairs": args.pairs, "seconds": spec["run_seconds"],
              "workloads": {}}
    for workload in args.workloads.split(","):
        values = {"parent": {}, "change": {}}
        digests_differ = []
        for i in range(args.pairs):
            seed = i + 1
            sides = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                sides.reverse()
            digests = {}
            for side, checkout in sides:
                result, digests[side] = run_side(checkout, workload, seed)
                if not result["correct"]:
                    sys.exit(f"compare: {side} failed its correctness gate "
                             f"on {workload} seed {seed}")
                for name, metric in result["metrics"].items():
                    values[side].setdefault(name, []).append(metric["value"])
            if digests["parent"] != digests["change"]:
                digests_differ.append(seed)
        rows = {}
        print(f"{workload}: {args.pairs} pairs, digests "
              f"{'differ at seeds ' + str(digests_differ) if digests_differ else 'identical'}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows[name] = verdict(metric, values["parent"][name],
                                 values["change"][name])
            row = rows[name]
            print(f"  {name:14s} parent {row['parent_median']:.5g} "
                  f"change {row['change_median']:.5g} {metric['unit']} "
                  f"({row['change'] * 100:+.1f}% better), wins "
                  f"{row['wins']}/{row['pairs']}, bound "
                  f"{row['bound'] * 100:.0f}%: {row['verdict']}")
        report["workloads"][workload] = {"digests_differ_at_seeds":
                                         digests_differ, "metrics": rows}
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")


if __name__ == "__main__":
    main()
