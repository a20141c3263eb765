#!/usr/bin/env python3
"""The repository benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles ../src) into .bench_build/perfbench on
first use, runs the workload against the real StreamingPcaPipeline, checks
its outputs and prints every metric by name and unit; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  --trace 1 first repeats the untraced run (its output
goes to standard error) so the traced run can report trace_overhead_frac
and accounted_frac against it.

Other modes:
    --selftest               build and run the metric unit tests
    --steadiness N           run the workload with seeds 1..N (trace 0) and
                             print each end-to-end metric's median,
                             quartiles and spread (IQR / median)

Workloads, metric definitions and known artifacts: perfbench/METRICS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A run (one or two binaries) must end within 180 s of starting them.
RUN_BUDGET_S = 170
WORKLOADS = ("ingest_batch", "serve_live", "transport_tcp")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; build output -> stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def run_binary(name, args, out, deadline):
    """Runs a benchmark binary, copying its stdout to `out`, killed at
    `deadline` (time.monotonic()).  Returns the exit code and the parsed
    JSON of its last line (None if absent)."""
    cmd = [os.path.join(BUILD_DIR, name)] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % name)
        return 1, None
    out.write(proc.stdout)
    out.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def workload_args(a):
    return ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]


def run_workload(a):
    deadline = time.monotonic() + RUN_BUDGET_S
    if not a.trace:
        rc, _ = run_binary("perfbench", workload_args(a) + ["--trace", "0"],
                           sys.stdout, deadline)
        return rc
    rc, base = run_binary("perfbench", workload_args(a) + ["--trace", "0"],
                          sys.stderr, deadline)
    if rc or base is None:
        return rc or 1
    m = base["metrics"]
    rc, _ = run_binary(
        "perfbench_traced",
        workload_args(a) + ["--trace", "1",
                            "--untraced-applied-tps",
                            repr(m["applied_tps"]["value"]),
                            "--untraced-cpu-us",
                            repr(m["cpu_us_per_tuple"]["value"])],
        sys.stdout, deadline)
    return rc


def steadiness(a):
    """Runs seeds 1..N and prints each metric's median, quartiles and
    spread, next to its bound in BENCHMARK.json when there is one."""
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            bounds = {m["name"]: m["bound"]
                      for m in json.load(f)["end_to_end"]}
    series = {}
    units = {}
    for seed in range(1, a.steadiness + 1):
        a.seed = seed
        rc, res = run_binary("perfbench", workload_args(a) + ["--trace", "0"],
                             sys.stderr, time.monotonic() + RUN_BUDGET_S)
        if rc or res is None or not res["correct"]:
            log("perfbench: seed %d failed" % seed)
            return rc or 1
        for name, m in res["metrics"].items():
            series.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print("%-20s %12s %12s %12s %9s %7s  %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "unit"))
    for name, values in series.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        print("%-20s %12.6g %12.6g %12.6g %9.4f %7s  %s" % (
            name, med, q1, q3, spread,
            "-" if bound is None else "%.2f" % bound, units[name]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()

    if not build():
        return 2
    if a.selftest:
        return subprocess.run([os.path.join(BUILD_DIR,
                                            "perfbench_selftest")]).returncode
    if a.workload is None:
        p.error("--workload is required")
    if a.steadiness > 0:
        return steadiness(a)
    return run_workload(a)


if __name__ == "__main__":
    sys.exit(main())
