#!/usr/bin/env python3
"""Builds the PRESTO benchmark in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to .bench_build/perfbench (build
output on stderr), traced runs write a Chrome trace-event file to
.bench_build/trace-<workload>-<seed>.json, and the last line on stdout is the
benchmark's JSON result. The exit code is non-zero when the build fails or any
output check fails.

--selftest runs every workload on a shortened window, then checks that
deliberately perturbed answers make the benchmark fail.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "presto_perfbench")
WORKLOADS = ["sensing_day", "query_storm", "federation_threads", "federation_procs"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "deployment.h")):
        print("perfbench: presto sources not found next to perfbench/", file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run_bench(args, capture=False):
    cmd = [BINARY] + args
    if not capture:
        return subprocess.run(cmd).returncode, ""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return proc.returncode, proc.stdout


def selftest():
    failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_bench(["--workload", workload, "--seed", "1", "--seconds", "0",
                                   "--trace", trace, "--quick"], capture=True)
            ok = code == 0 and '"correct": true' in out
            print("selftest %-20s trace %s %s" % (workload, trace, "ok" if ok else "FAILED"))
            if not ok:
                print(out)
                failures += 1
    # Each perturbation corrupts one result after the program produced it; the
    # checks must catch it, or they are vacuous.
    perturbations = [("query_storm", "now", "NOW answer off by"),
                     ("query_storm", "past", "PAST sample off by"),
                     ("query_storm", "range", "PAST sample outside its requested range"),
                     ("query_storm", "source", "answer sources disagree with the proxies"),
                     ("query_storm", "sum", "answer-source counts do not sum"),
                     ("federation_threads", "fed", "fingerprint differs")]
    for workload, what, expect in perturbations:
        code, out = run_bench(["--workload", workload, "--seed", "1", "--seconds", "0",
                               "--trace", "0", "--quick", "--perturb", what], capture=True)
        ok = code != 0 and '"correct": false' in out and expect in out
        print("selftest perturb %-6s %s" % (what, "caught" if ok else "NOT CAUGHT"))
        if not ok:
            print(out)
            failures += 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args, extra = parser.parse_known_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.selftest:
        return selftest()
    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        bench_args += ["--trace-out", os.path.join(
            ROOT, ".bench_build", "trace-%s-%d.json" % (args.workload, args.seed))]
    code, _ = run_bench(bench_args + extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
