#!/usr/bin/env python3
"""Build and run AD-PROM's wire-to-verdict benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-frames --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

One workload run prints every metric by name and unit and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 its per_layer
list. --all runs every workload untraced and traced, each in fresh
processes, and exits non-zero if any check failed.

The Go program is built into .bench_build/ (build cache included), so the
benchmark reads and writes nothing outside the checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Extra processes that only set up, half before and half after the measured
# one, so setup_s is a median of several that straddle the run.
SETUP_REPEATS = 10
CHILD_TIMEOUT_S = 160


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    return env


def build():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE, env=go_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError("go build failed")


def child(args):
    """Run the benchmark program once; relay its report, return its result."""
    proc = subprocess.run(
        [BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark program printed nothing (exit %d)" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])
    if proc.returncode != 0 and res.get("correct", False):
        raise RuntimeError("benchmark program exited %d" % proc.returncode)
    return res


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_workload(spec, workload, seed, seconds, trace):
    base = ["-workload", workload, "-seed", str(seed), "-seconds", str(seconds)]
    if trace == 0:
        def setup_only():
            return child(base + ["-setup-only"])["metrics"]["setup_s"]["value"]
        setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
        main = child(base + ["-trace", "0"])
        setups.append(main["metrics"]["setup_s"]["value"])
        setups += [setup_only() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]
        metrics = dict(main["metrics"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print("setup_s median of %d set-ups: %s" % (len(setups), " ".join("%.4f" % s for s in setups)))
        wanted = spec["end_to_end"]
        correct = main["correct"]
    else:
        plain = child(base + ["-trace", "0"])
        spans = os.path.join(BUILD, "spans-%s-seed%s.json" % (workload, seed))
        main = child(base + ["-trace", "1", "-spans", spans])
        metrics = dict(main["metrics"])
        p, t = plain["metrics"], main["metrics"]
        # User-visible latencies come from the untraced run.
        for name in ("verdict_p50_ms", "verdict_p90_ms", "verdict_p99_ms", "alert_p50_ms", "alert_p99_ms"):
            metrics[name] = p[name]
        metrics["trace.overhead_calls_per_s_pct"] = {
            "value": 100 * (p["calls_per_s"]["value"] - t["calls_per_s"]["value"]) / p["calls_per_s"]["value"],
            "unit": "%"}
        metrics["trace.overhead_cpu_pct"] = {
            "value": 100 * (t["cpu_ms_per_kcall"]["value"] - p["cpu_ms_per_kcall"]["value"]) / p["cpu_ms_per_kcall"]["value"],
            "unit": "%"}
        for name in ("trace.overhead_calls_per_s_pct", "trace.overhead_cpu_pct"):
            print("%-34s %14.6g %-8s traced vs untraced run" % (name, metrics[name]["value"], "%"))
        print("spans written to %s" % os.path.relpath(spans, ROOT))
        wanted = spec["per_layer"]
        correct = main["correct"] and plain["correct"]
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise RuntimeError("metric %s missing from the %s run" % (m["name"], workload))
        out[m["name"]] = {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
    return {"correct": bool(correct), "attempted": int(main["attempted"]),
            "failed": int(main["failed"]), "metrics": out}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = ap.parse_args()
    try:
        spec = load_spec()
        build()
        if args.all:
            ok = True
            for w in spec["workloads"]:
                for trace in (0, 1):
                    print("== %s trace=%d" % (w["name"], trace))
                    res = run_workload(spec, w["name"], args.seed, args.seconds, trace)
                    print(json.dumps(res))
                    ok = ok and res["correct"]
            return 0 if ok else 1
        if not args.workload:
            ap.error("--workload or --all is required")
        res = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, KeyError, subprocess.SubprocessError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print(json.dumps(res))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
