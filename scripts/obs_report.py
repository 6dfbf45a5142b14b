#!/usr/bin/env python3
"""Summarize src/obs output files on the terminal.

Chrome's trace viewer is the primary consumer of --obs traces, but a
quick textual digest is often enough. Given a trace (and optionally
an interval-metrics CSV from --obs-series), print:

  * the recording ledger: events kept and dropped per source, and
    interval-series rows dropped past the row cap,
  * event counts and total duration per category/name pair,
  * the per-phase cycle attribution table embedded in the trace,
  * for the series: the busiest sampling intervals by bus traffic.

Standard library only; works on any --obs / --obs-series output from
the scmp CLI, the figure benches, or a sweep (point-suffixed files).

Usage: scripts/obs_report.py TRACE.json [--series=SERIES.csv]
                             [--top=N]
"""

import csv
import json
import sys
from collections import defaultdict


def load_trace(path):
    with open(path) as f:
        return json.load(f)


def event_summary(trace, top):
    counts = defaultdict(int)
    durations = defaultdict(int)
    for event in trace.get("traceEvents", []):
        if event.get("ph") in ("M", "e"):
            continue  # metadata; async ends pair with their "b"
        key = (event.get("cat", "?"), event.get("name", "?"))
        counts[key] += 1
        durations[key] += event.get("dur", 0)

    print("== events by category ==")
    print(f"{'cat':8} {'name':24} {'count':>10} {'cycles':>14}")
    ranked = sorted(counts, key=lambda k: -counts[k])
    for key in ranked[:top]:
        cat, name = key
        print(f"{cat:8} {name:24} {counts[key]:>10}"
              f" {durations[key]:>14}")
    if len(ranked) > top:
        print(f"  ... {len(ranked) - top} more")


def ledger(trace):
    scmp = trace.get("scmp")
    if not scmp:
        print("(no scmp trailer — not an scmp --obs trace?)")
        return
    print("== recording ledger ==")
    print(f"recorded {scmp['recorded']} events;"
          f" mshr allocs {scmp.get('mshr_allocs', 0)},"
          f" merges {scmp.get('mshr_merges', 0)}")
    drops = {k: v for k, v in scmp.get("dropped", {}).items() if v}
    if drops:
        print(f"DROPPED (events: raise SCMP_OBS_CAP; series rows:"
              f" raise --obs-interval): {drops}")


def phase_table(trace):
    phases = trace.get("scmp", {}).get("phases", [])
    if not phases:
        return
    print("== per-phase cycle attribution (barrier epochs) ==")
    deltas = sorted({k for p in phases for k in p["deltas"]})
    shown = [d for d in deltas
             if any(p["deltas"][d] for p in phases)]
    print(f"{'phase':>5} {'cycles':>12} "
          + " ".join(f"{d:>18}" for d in shown))
    for p in phases:
        print(f"{p['phase']:>5} {p['cycles']:>12} "
              + " ".join(f"{p['deltas'][d]:>18}" for d in shown))


def series_summary(path, top):
    with open(path) as f:
        rows = list(csv.DictReader(f))
    if len(rows) < 2:
        print(f"(series {path}: fewer than two samples)")
        return
    print(f"== busiest intervals ({path}) ==")
    intervals = []
    for prev, cur in zip(rows, rows[1:]):
        intervals.append({
            "cycle": int(cur["cycle"]),
            "bus": int(cur["busTransactions"])
                - int(prev["busTransactions"]),
            "busWait": int(cur["busWaitCycles"])
                - int(prev["busWaitCycles"]),
            "misses": int(cur["readMisses"]) + int(cur["writeMisses"])
                - int(prev["readMisses"]) - int(prev["writeMisses"]),
        })
    intervals.sort(key=lambda i: -i["bus"])
    print(f"{'ending at':>14} {'bus txns':>10} {'bus wait':>10}"
          f" {'misses':>10}")
    for i in intervals[:top]:
        print(f"{i['cycle']:>14} {i['bus']:>10} {i['busWait']:>10}"
              f" {i['misses']:>10}")


def main(argv):
    trace_path = None
    series_path = None
    top = 10
    for arg in argv[1:]:
        if arg.startswith("--series="):
            series_path = arg.split("=", 1)[1]
        elif arg.startswith("--top="):
            top = int(arg.split("=", 1)[1])
        elif arg.startswith("-"):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        else:
            trace_path = arg
    if not trace_path and not series_path:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    if trace_path:
        trace = load_trace(trace_path)
        ledger(trace)
        event_summary(trace, top)
        phase_table(trace)
    if series_path:
        series_summary(series_path, top)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
