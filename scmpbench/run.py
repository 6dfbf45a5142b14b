#!/usr/bin/env python3
"""Run one scmp benchmark workload and print its metrics.

    python3 scmpbench/run.py --workload grid --seed 1 [--seconds S] --trace 0

Run from the root of a checkout. The first run builds the harness and
the repository's microbenchmarks from source into .bench_build. Each
run then executes whole workload iterations, one fresh harness
process each, until --seconds have passed (default: BENCHMARK.json's
run_seconds), and checks every simulated result:

* every cycle-accurate point passes its workload's verify();
* every RunResult digest repeats exactly across the run's iterations,
  traced and untraced alike;
* at the default seed (0), every digest equals the one pinned in
  scmpbench/digests.json.

--trace 0 reports the end-to-end metrics (medians over untraced
iterations). --trace 1 alternates untraced and traced iterations,
runs the microbenchmarks, and reports the per-layer metrics. Human-
readable report lines come first, then one JSON object {"report": ...}
with the host stamp, the iteration wall times and the reported-only
figures; the last line of stdout is one JSON object: {"correct",
"attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "scmpbench_harness"
WORKLOADS = ("grid", "fabric", "server")
DEFAULT_SEED = 0
MIN_PLAIN = 3   # untraced iterations per --trace 0 run, at least
MIN_TRACED = 2  # traced iterations per --trace 1 run, at least

# Barnes read-miss rates from the paper's Table 4 (EXPERIMENTS.md),
# keyed by the harness's point names.
PAPER_TABLE4 = {
    "barnes/p1/8K": 0.0796, "barnes/p1/64K": 0.0455,
    "barnes/p1/256K": 0.0410,
    "barnes/p2/8K": 0.0782, "barnes/p2/64K": 0.0145,
    "barnes/p2/256K": 0.0092,
    "barnes/p4/8K": 0.0853, "barnes/p4/64K": 0.0086,
    "barnes/p4/256K": 0.0017,
    "barnes/p8/8K": 0.1033, "barnes/p8/64K": 0.0126,
    "barnes/p8/256K": 0.0026,
}

# name -> (binary, benchmark name, JSON field, scale)
MICRO = {
    "micro.fiber_switch_ns": ("micro_primitives", "BM_FiberSwitch",
                              "real_time", 1.0),
    "micro.scc_hit_ns": ("micro_primitives", "BM_SccHit",
                         "real_time", 1.0),
    "micro.scc_same_line_hit_ns": ("micro_refpath", "BM_SccSameLineHit/1",
                                   "real_time", 1.0),
    "micro.tag_probe_ns": ("micro_refpath", "BM_TagProbeMruHit",
                           "real_time", 1.0),
    "micro.mshr_churn_ns": ("micro_refpath", "BM_MshrChurn",
                            "real_time", 1.0),
    "micro.scc_miss_ns": ("micro_primitives", "BM_SccMissStream",
                          "real_time", 1.0),
    "micro.bus_txn_ns": ("micro_primitives", "BM_BusTransaction",
                         "real_time", 1.0),
    "micro.machine_ref_stream_mrefs": ("micro_refpath",
                                       "BM_MachineRefStream",
                                       "items_per_second", 1e-6),
}


def die(message):
    print(f"scmpbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build the harness and microbenchmarks."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no simulator sources under {ROOT}; run from a checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1), "--target",
                  "scmpbench_harness", "micro_primitives",
                  "micro_refpath"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            die(f"build step failed: {' '.join(step)}")


def run_iteration(workload, seed, mode):
    """One harness process; returns its JSON, or None if it failed."""
    done = subprocess.run([str(HARNESS), workload, str(seed), mode],
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-2000:])
        return None
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError:
        return None


def run_micro():
    """Run the microbenchmarks once; name -> value."""
    results = {}
    for binary in sorted({spec[0] for spec in MICRO.values()}):
        names = [spec[1] for spec in MICRO.values() if spec[0] == binary]
        pattern = "^(" + "|".join(names) + ")$"
        done = subprocess.run(
            [str(BUILD / binary), "--benchmark_format=json",
             "--benchmark_min_time=0.2", f"--benchmark_filter={pattern}"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, check=True)
        by_name = {b["name"]: b for b in json.loads(done.stdout)["benchmarks"]}
        for metric, (bin_name, bench, field, scale) in MICRO.items():
            if bin_name == binary:
                results[metric] = by_name[bench][field] * scale
    return results


class Gate:
    """Digest and verification checks over every iteration of a run."""

    def __init__(self, workload, seed):
        pins = json.loads((BENCH_DIR / "digests.json").read_text())
        self.pinned = pins[workload] if seed == DEFAULT_SEED else None
        self.expected = (len(pins[workload]["cycle"]) +
                         len(pins[workload]["predicted"]))
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, it):
        if it is None:
            self.attempted += self.expected
            self.failed += self.expected
            self.problems.append("harness iteration crashed")
            return
        for kind in ("cycle", "predicted"):
            for point in it[kind]:
                key = (kind, point["name"])
                self.attempted += 1
                bad = None
                if kind == "cycle" and not point["verified"]:
                    bad = "verify() failed"
                elif self.seen.setdefault(key, point["digest"]) != point["digest"]:
                    bad = "digest differs between iterations"
                elif self.pinned is not None and \
                        self.pinned[kind].get(point["name"]) != point["digest"]:
                    bad = "digest differs from the pinned one"
                if bad:
                    self.failed += 1
                    self.problems.append(f"{kind} {point['name']}: {bad} "
                                         f"({it['mode']})")


def median(values):
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def model_miss_err(it):
    """Largest relative error of the analytic read-miss rate against
    the cycle-accurate one, over the cycle-accurate points."""
    predicted = {p["name"]: p["read_miss_rate"] for p in it["predicted"]}
    return max(abs(predicted[p["name"]] - p["read_miss_rate"]) /
               p["read_miss_rate"] for p in it["cycle"])


def paper_missrate_err(it):
    """Mean absolute error (fraction) of Barnes read-miss rates against
    the paper's Table 4; None when the workload has no Barnes grid."""
    errors = [abs(p["read_miss_rate"] - PAPER_TABLE4[p["name"]])
              for p in it["cycle"] if p["name"] in PAPER_TABLE4]
    return sum(errors) / len(errors) if errors else None


def by_stage(iters, kind, fn):
    """Sum over the stages of one kind ("cycle" points or "screens")
    of each stage's median across the iterations of fn(it, stage)."""
    total = 0.0
    for name in [stage["name"] for stage in iters[0][kind]]:
        total += median(fn(it, stage) for it in iters
                        for stage in it[kind] if stage["name"] == name)
    return total


def unstaged_s(it):
    """Iteration wall time outside its points and screens."""
    return it["wall_s"] - sum(s["wall_s"]
                              for s in it["cycle"] + it["screens"])


def run_s(it):
    return sum(p["run_s"] for p in it["cycle"])


def end_to_end(plain):
    """Host times: each stage's median over the iterations, summed
    over the stages."""
    def field(name):
        return lambda it, stage: stage[name]

    refs = sum(p["refs"] for p in plain[0]["cycle"])
    return {
        "wall_s": (by_stage(plain, "cycle", field("wall_s")) +
                   by_stage(plain, "screens", field("wall_s")) +
                   median(unstaged_s(it) for it in plain), "s"),
        "refs_per_s": (refs / by_stage(plain, "cycle", field("run_s")),
                       "1/s"),
        "setup_s": (by_stage(plain, "cycle", field("setup_s")), "s"),
        "peak_rss_mb": (median(it["peak_rss_mb"] for it in plain), "MB"),
    }


def per_layer(plain, traced, micro):
    def med(fn, source):
        return median(fn(it) for it in source)

    def lay(it):
        return it["layers"]

    def self_s(it):
        return run_s(it) - lay(it)["hit_s"] - lay(it)["miss_s"]

    def screens(it, field):
        return sum(s[field] for s in it["screens"])

    metrics = {
        "exec.self_s": (med(self_s, traced), "s"),
        "exec.ns_per_ref": (med(lambda it: self_s(it) * 1e9 /
                                it["counts"]["exec.refs"], traced), "ns"),
        "exec.self_share": (med(lambda it: self_s(it) / run_s(it), traced),
                            "frac"),
        "mem.access_s": (med(lambda it: lay(it)["hit_s"] + lay(it)["miss_s"],
                             traced), "s"),
        "mem.hit_ns": (med(lambda it: lay(it)["hit_s"] * 1e9 /
                           lay(it)["hits"], traced), "ns"),
        "mem.miss_ns": (med(lambda it: lay(it)["miss_s"] * 1e9 /
                            lay(it)["misses"], traced), "ns"),
        "mem.miss_share": (med(lambda it: lay(it)["miss_s"] / run_s(it),
                               traced), "frac"),
        "net.txn_ns": (med(lambda it: lay(it)["net_replay_s"] * 1e9 /
                           lay(it)["net_replayed"], traced), "ns"),
        "dram.fill_ns": (med(lambda it: lay(it)["fill_replay_s"] * 1e9 /
                             lay(it)["fills_replayed"], traced), "ns"),
        "model.profile_s": (med(lambda it: screens(it, "profile_s"), plain),
                            "s"),
        "model.eval_ms": (med(lambda it: screens(it, "eval_s") * 1e3, plain),
                          "ms"),
        "model.miss_err": (model_miss_err(plain[0]), "frac"),
        "sweep.overhead_s": (med(lambda it: it["sweep_s"] -
                                 sum(p["wall_s"] for p in it["cycle"]) -
                                 screens(it, "profile_s") -
                                 screens(it, "eval_s"), plain), "s"),
        "setup.workload_s": (by_stage(plain, "cycle",
                                      lambda it, p: p["setup_workload_s"]),
                             "s"),
        "setup.machine_s": (by_stage(plain, "cycle",
                                     lambda it, p: p["setup_machine_s"]),
                            "s"),
        "trace.overhead": (med(lambda it: it["wall_s"], traced) /
                           med(lambda it: it["wall_s"], plain) - 1, "frac"),
    }
    units = {"dram.row_hit_rate": "frac"}
    for name, value in traced[0]["counts"].items():
        metrics[name] = (value, units.get(name, "count"))
    for name, value in micro.items():
        metrics[name] = (value, "Mref/s" if name.endswith("_mrefs") else "ns")
    return metrics


def host_stamp():
    commit = "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except OSError:
        pass
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    uname = " ".join(platform.uname()[:3])
    return f"commit={commit} nproc={os.cpu_count()} uname={uname} cpu={cpu}"


def pin():
    """Re-pin scmpbench/digests.json from the default seed; the
    traced and untraced iterations must agree."""
    build()
    pins = {}
    for workload in WORKLOADS:
        plain = run_iteration(workload, DEFAULT_SEED, "plain")
        traced = run_iteration(workload, DEFAULT_SEED, "traced")
        if plain is None or traced is None:
            die(f"{workload}: harness failed")
        pins[workload] = {}
        for kind in ("cycle", "predicted"):
            digests = {p["name"]: p["digest"] for p in plain[kind]}
            if digests != {p["name"]: p["digest"] for p in traced[kind]}:
                die(f"{workload}: traced and untraced digests differ")
            if kind == "cycle" and not all(p["verified"]
                                           for p in plain[kind]):
                die(f"{workload}: a point failed verify()")
            pins[workload][kind] = digests
    (BENCH_DIR / "digests.json").write_text(
        json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"pinned {sum(len(p['cycle']) + len(p['predicted']) for p in pins.values())} digests")


def run_seconds():
    """The run length BENCHMARK.json fixes."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return spec["run_seconds"]
    except (OSError, ValueError, KeyError):
        die(f"no readable BENCHMARK.json under {ROOT}; run from a checkout")


def main():
    if sys.argv[1:] == ["--pin"]:
        pin()
        return
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = run_seconds()

    build()
    gate = Gate(args.workload, args.seed)
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        if args.trace and len(traced) < len(plain):
            mode, sink = "traced", traced
        else:
            mode, sink = "plain", plain
        it = run_iteration(args.workload, args.seed, mode)
        gate.check(it)
        if it is not None:
            sink.append(it)
        if time.monotonic() >= deadline:
            enough = (len(traced) >= MIN_TRACED and len(plain) >= MIN_TRACED
                      if args.trace else len(plain) >= MIN_PLAIN)
            if enough or gate.failed:
                break

    if args.trace:
        if gate.failed == 0:
            for it in traced:
                if it["counts"] != traced[0]["counts"]:
                    gate.failed += 1
                    gate.problems.append("layer counts differ between "
                                         "traced iterations")
        metrics = per_layer(plain, traced, run_micro()) if traced and plain \
            else {}
    else:
        metrics = end_to_end(plain) if plain else {}

    correct = gate.failed == 0 and bool(metrics)
    stamp = host_stamp()
    combined = hashlib.sha256(
        json.dumps(sorted(gate.seen.items())).encode()).hexdigest()[:16]
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": stamp,
              "fail_frac": gate.failed / max(gate.attempted, 1),
              "digests": combined}
    print(f"scmpbench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {stamp}")
    for problem in gate.problems[:20]:
        print(f"  FAIL {problem}")
    print(f"  fail_frac {report['fail_frac']:.6g} "
          f"({gate.failed}/{gate.attempted} design points)")
    print(f"  digests {combined} ({len(gate.seen)} results)")
    if plain:
        wall = [it["wall_s"] for it in plain]
        q1, q3 = quartiles(wall)
        report["iteration_wall_s"] = {"median": median(wall), "q1": q1,
                                      "q3": q3, "runs": len(wall)}
        report["model_miss_err"] = model_miss_err(plain[0])
        print(f"  iteration wall: median {median(wall):.4f} s, "
              f"quartiles {q1:.4f}..{q3:.4f}, {len(wall)} untraced runs")
        print(f"  model_miss_err {report['model_miss_err']:.6g} frac "
              f"(analytic vs cycle-accurate read-miss rate, largest "
              f"relative error over the cycle-accurate points)")
        paper = paper_missrate_err(plain[0])
        if paper is not None:
            report["paper_missrate_err"] = paper
            print(f"  paper_missrate_err {paper:.6g} frac (Barnes vs "
                  f"Table 4, mean absolute)")
    if traced:
        report["trace_overhead"] = metrics["trace.overhead"][0]
        print(f"  tracing overhead "
              f"{metrics['trace.overhead'][0] * 100:+.1f}% wall "
              f"over {len(traced)} traced runs")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
