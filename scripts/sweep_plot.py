#!/usr/bin/env python3
"""Render a sweep ResultStore (JSON lines) as charts.

Every sweep that runs with --results leaves a JSON-lines store where
each record is one design point (workload, scale, procs, sccBytes,
the axis tags of the study that wrote it, and the RunResult
payload). This script turns a store into line charts:

  * mem-scaling stores (records tagged with "mem"/"channels"/
    "banks"/"memSched", as written by fig_mem_scaling's
    SweepExecutor::runStudy): one curve per channels/scheduler
    combination over the banks-per-channel axis.
  * net-scaling stores (records tagged with "clusters"/"net", as
    written by fig_net_scaling's SweepExecutor::runStudy): one curve
    per interconnect topology over the cluster axis.
  * tm stores (records tagged with "tm"/"tmEntries", as written by
    fig_tm's SweepExecutor::runStudy): one curve per conflict
    manager/fabric combination over the speculative-set-size axis
    — use --metric=tmAbortRate for the abort-rate figure. The
    --tm=off lock baselines carry no set size and are skipped.
  * isolation stores (records tagged with "isolation"/
    "isolationDomains", as written by fig_sec's
    SweepExecutor::runStudy): one curve per mitigation over
    the security-domain axis — use --metric=leakBitsPerEpoch (or
    probeAccuracy) for the leakage figure; records without a
    leakage sample (the SPLASH cost runs) are skipped for those
    metrics. The --isolation=none baselines carry no domain count
    and are skipped.
  * plain design-space stores: one curve per workload/procs pair
    over the SCC-size axis (the paper's cache-warming shape).

Output is SVG built by hand — standard library only, so it runs in
the bare CI container. With --png the script additionally renders
through matplotlib when (and only when) that is importable; the PNG
is skipped with a note otherwise, never an error.

With --latency the script instead reads compute-server stores
(records whose results carry requests/latencyP50/P95/P99, as
written by the examples/compute_server sweep): one p50/p95/p99
curve per design point over the offered-load axis, which is parsed
from the workload name ("server-l0.70-r250000"). Analytic screen
records carry no latency sample and are skipped.

Usage: scripts/sweep_plot.py RESULTS.jsonl [--out=PREFIX]
           [--metric=cycles|readMissRate|missRate|busUtilization|
                     busTransactions|invalidations|dramFills|
                     dramRowHitRate|tmAbortRate|tmCommits|
                     tmAborts|tmFallbacks|leakBitsPerEpoch|
                     probeAccuracy]
           [--latency] [--png]
"""

import json
import re
import sys
from collections import defaultdict

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 40, 50
PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f"]


def load_store(path):
    records = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as e:
                # A killed sweep can leave one partial final line;
                # anything else is worth the warning too.
                print(f"warning: {path}:{line_no}: skipping "
                      f"unparseable record ({e})", file=sys.stderr)
    return records


def metric_of(record, metric):
    result = record.get("result", {})
    if metric not in result:
        raise SystemExit(f"error: metric '{metric}' not in record "
                         f"(have: {', '.join(sorted(result))})")
    return float(result[metric])


def series_from_store(records, metric):
    """Group records into named curves of (x, y) points.

    Returns (series, xlabel) where series maps a legend label to a
    sorted point list.
    """
    if any(r.get("mem") for r in records):
        series = defaultdict(list)
        for r in records:
            if not r.get("mem") or not r.get("banks"):
                continue
            label = (f"{r.get('channels', '?')}ch/"
                     f"{r.get('memSched', '?')}")
            series[label].append(
                (r["banks"], metric_of(r, metric)))
        xlabel = "banks per channel"
    elif any(r.get("tm") for r in records):
        series = defaultdict(list)
        for r in records:
            # The --tm=off lock baselines have no set size (and no
            # tm result group), so they have no place on this axis.
            if not r.get("tm") or not r.get("tmEntries"):
                continue
            if metric.startswith("tm") and \
                    metric not in r.get("result", {}):
                continue
            label = f"{r['tm']}/{r.get('net', '?')}"
            series[label].append(
                (r["tmEntries"], metric_of(r, metric)))
        xlabel = "speculative set entries"
    elif any(r.get("isolation") for r in records):
        sec_metrics = {"leakBitsPerEpoch", "probeAccuracy",
                       "chanceAccuracy"}
        series = defaultdict(list)
        for r in records:
            # The --isolation=none baselines have no domain count,
            # so they have no place on this axis; the SPLASH cost
            # runs carry no leakage sample.
            if not r.get("isolation") or \
                    not r.get("isolationDomains"):
                continue
            if metric in sec_metrics and \
                    metric not in r.get("result", {}):
                continue
            label = f"{r['isolation']}/{r.get('workload', '?')}"
            series[label].append(
                (r["isolationDomains"], metric_of(r, metric)))
        xlabel = "security domains"
    elif any(r.get("net") for r in records):
        series = defaultdict(list)
        for r in records:
            if not r.get("net") or not r.get("clusters"):
                continue
            series[r["net"]].append(
                (r["clusters"], metric_of(r, metric)))
        xlabel = "clusters"
    else:
        series = defaultdict(list)
        for r in records:
            label = f"{r.get('workload', '?')} {r.get('procs', '?')}P"
            series[label].append(
                (r.get("scc", 0) / 1024.0, metric_of(r, metric)))
        xlabel = "SCC size (KB)"
    for points in series.values():
        points.sort()
    return dict(series), xlabel


def latency_series(records):
    """Latency-percentile curves over the offered-load axis.

    One curve per (procs, sccBytes, percentile); only records that
    replayed actual requests contribute (the analytic screen
    predicts rates, not per-request queueing).
    """
    series = defaultdict(list)
    for r in records:
        result = r.get("result", {})
        if not result.get("requests"):
            continue
        match = re.search(r"-l([0-9.]+)", r.get("workload", ""))
        if not match:
            continue
        load = float(match.group(1))
        base = (f"{r.get('procs', '?')}P/"
                f"{int(r.get('scc', 0)) // 1024}K")
        for field, name in (("latencyP50", "p50"),
                            ("latencyP95", "p95"),
                            ("latencyP99", "p99")):
            series[f"{base} {name}"].append(
                (load, float(result[field])))
    for points in series.values():
        points.sort()
    return dict(series), "offered load"


def _ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1
    step = (hi - lo) / count
    return [lo + i * step for i in range(count + 1)]


def _fmt(v):
    if v == 0:
        return "0"
    if abs(v) >= 1e6:
        return f"{v / 1e6:.3g}M"
    if abs(v) >= 1e3:
        return f"{v / 1e3:.3g}k"
    if abs(v) < 1:
        return f"{v:.3g}"
    return f"{v:.4g}"


def render_svg(series, title, xlabel, ylabel):
    xs = [x for pts in series.values() for x, _ in pts]
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        raise SystemExit("error: no plottable records in the store")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return MARGIN_T + plot_h * (1 - (y - y_lo) / (y_hi - y_lo))

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" '
           f'width="{WIDTH}" height="{HEIGHT}" '
           f'font-family="sans-serif" font-size="12">',
           f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
           f'<text x="{MARGIN_L}" y="24" font-size="15">'
           f'{title}</text>']

    # Grid and axis labels.
    for y in _ticks(y_lo, y_hi):
        out.append(f'<line x1="{MARGIN_L}" y1="{py(y):.1f}" '
                   f'x2="{MARGIN_L + plot_w}" y2="{py(y):.1f}" '
                   f'stroke="#ddd"/>')
        out.append(f'<text x="{MARGIN_L - 6}" y="{py(y) + 4:.1f}" '
                   f'text-anchor="end">{_fmt(y)}</text>')
    for x in sorted({x for pts in series.values() for x, _ in pts}):
        out.append(f'<line x1="{px(x):.1f}" '
                   f'y1="{MARGIN_T + plot_h}" x2="{px(x):.1f}" '
                   f'y2="{MARGIN_T + plot_h + 4}" stroke="#333"/>')
        out.append(f'<text x="{px(x):.1f}" '
                   f'y="{MARGIN_T + plot_h + 18}" '
                   f'text-anchor="middle">{_fmt(x)}</text>')
    out.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
               f'width="{plot_w}" height="{plot_h}" fill="none" '
               f'stroke="#333"/>')
    out.append(f'<text x="{MARGIN_L + plot_w / 2:.0f}" '
               f'y="{HEIGHT - 12}" text-anchor="middle">'
               f'{xlabel}</text>')
    out.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" '
               f'text-anchor="middle" transform="rotate(-90 18 '
               f'{MARGIN_T + plot_h / 2:.0f})">{ylabel}</text>')

    # Curves + legend.
    for i, (label, points) in enumerate(sorted(series.items())):
        color = PALETTE[i % len(PALETTE)]
        path = " ".join(f"{px(x):.1f},{py(y):.1f}"
                        for x, y in points)
        out.append(f'<polyline points="{path}" fill="none" '
                   f'stroke="{color}" stroke-width="2"/>')
        for x, y in points:
            out.append(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" '
                       f'r="3" fill="{color}"/>')
        ly = MARGIN_T + 14 + i * 18
        out.append(f'<line x1="{MARGIN_L + plot_w + 10}" '
                   f'y1="{ly}" x2="{MARGIN_L + plot_w + 34}" '
                   f'y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{MARGIN_L + plot_w + 40}" '
                   f'y="{ly + 4}">{label}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_png(series, title, xlabel, ylabel, path):
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print(f"note: matplotlib not available, skipping {path}")
        return
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for label, points in sorted(series.items()):
        ax.plot([x for x, _ in points], [y for _, y in points],
                marker="o", label=label)
    ax.set_title(title)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    ax.grid(True, alpha=0.3)
    ax.legend()
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    print(f"wrote {path}")


def main(argv):
    store_path = None
    out_prefix = None
    metric = "cycles"
    want_png = False
    want_latency = False
    for arg in argv[1:]:
        if arg.startswith("--out="):
            out_prefix = arg.split("=", 1)[1]
        elif arg.startswith("--metric="):
            metric = arg.split("=", 1)[1]
        elif arg == "--latency":
            want_latency = True
        elif arg == "--png":
            want_png = True
        elif arg.startswith("-"):
            print(__doc__.strip(), file=sys.stderr)
            return 2
        else:
            store_path = arg
    if not store_path:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if not out_prefix:
        out_prefix = store_path.rsplit(".", 1)[0]

    records = load_store(store_path)
    if not records:
        raise SystemExit(f"error: no records in {store_path}")
    if want_latency:
        metric = "latency"
        series, xlabel = latency_series(records)
        if not series:
            raise SystemExit("error: no server records with "
                             "request latencies in the store")
    else:
        series, xlabel = series_from_store(records, metric)
    title = f"{store_path}: {metric}"

    svg_path = f"{out_prefix}-{metric}.svg"
    with open(svg_path, "w") as f:
        f.write(render_svg(series, title, xlabel, metric))
    print(f"wrote {svg_path} ({len(series)} curves, "
          f"{sum(len(p) for p in series.values())} points)")
    if want_png:
        render_png(series, title, xlabel, metric,
                   f"{out_prefix}-{metric}.png")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
