#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/perfbench.
--trace 0 measures the end-to-end metrics with every SF_* variable unset,
so the library runs on its defaults. --trace 1 reports the per-layer
metrics. It first makes a short untraced run of the same workload and
seed, then a traced one with SF_METRICS=1, and sets trace.overhead_frac
from the two. The metric names come from BENCHMARK.json. Standard output
ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. The exit status is 0 on
success, 2 when an output was wrong, and 1 for any other failure.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
SOLVE_WORKLOADS = ("heat3d-llc", "box2d-1t")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configures and builds `target`; output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def clean_env(metrics):
    """The environment without any SF_* knob; SF_METRICS=1 when asked."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SF_")}
    if metrics:
        env["SF_METRICS"] = "1"
    return env


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs the measuring binary once; returns its parsed JSON line and exit code."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"] + list(extra)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           env=clean_env(trace), timeout=RUN_TIMEOUT_S,
                           universal_newlines=True)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out after %d s" % RUN_TIMEOUT_S)
        return None, 1
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode not in (0, 2) or not lines:
        log("perfbench: the binary exited with %d" % p.returncode)
        return None, 1
    return json.loads(lines[-1]), p.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the self-test of the measurement helpers")
    args = ap.parse_args()

    if args.self_test:
        if not build("perfbench_selftest"):
            return 1
        return subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if not build("perfbench"):
        return 1

    if args.trace:
        # Untraced reference for trace.overhead_frac: the same workload, seed
        # and window, but only one solve on the solve workloads.
        base, code = run_binary(args.workload, args.seed, args.seconds, False,
                                ["--reps", "1"])
        if base is None:
            return 1
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        out = os.path.join(BUILD, "traces",
                           "%s-seed%d.json" % (args.workload, args.seed))
        res, code2 = run_binary(args.workload, args.seed, args.seconds, True,
                                ["--trace-out", out])
        if res is None:
            return 1
        traced = res["metrics"]["trace.e2e"]["value"]
        if args.workload in SOLVE_WORKLOADS:  # GFLOP/s: tracing lowers it
            untraced = base["metrics"]["gflops"]["value"]
            overhead = untraced / traced - 1.0
        else:  # lat_p50_ms.r1000: tracing raises it
            untraced = base["metrics"]["lat_p50_ms.r1000"]["value"]
            overhead = traced / untraced - 1.0
        res["metrics"]["trace.overhead_frac"] = {"value": overhead,
                                                 "unit": "fraction"}
        res["correct"] = res["correct"] and base["correct"]
        res["attempted"] += base["attempted"]
        res["failed"] += base["failed"]
        code = max(code, code2)
    else:
        res, code = run_binary(args.workload, args.seed, args.seconds, False)
        if res is None:
            return 1

    got = res["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in got]
    if missing:
        log("perfbench: the run did not report " + ", ".join(missing))
        return 1
    for name in sorted(got):
        print("%-30s %18.6f %s" % (name, got[name]["value"], got[name]["unit"]))
    out = {"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
           "failed": int(res["failed"]),
           "metrics": {m["name"]: {"value": got[m["name"]]["value"],
                                   "unit": m["unit"]} for m in wanted}}
    print(json.dumps(out), flush=True)
    if not out["correct"]:
        log("perfbench: an output differs from the reference")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
