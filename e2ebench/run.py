#!/usr/bin/env python3
"""End-to-end benchmark of the bi-decomposition flow.

Builds the harness and the program's libraries from source (Release), runs
the checker's own test, then one measured run of a workload:

    python3 e2ebench/run.py --workload mcnc_bdd --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Build output and diagnostics go to standard
error. The build lands in $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench); traced runs write their Chrome trace and self-time
table to .bench_build/e2ebench/traces/. See e2ebench/README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("mcnc_bdd", "certified_sat", "reorder_auto", "server_mixed")


def run_quiet(cmd):
    """Runs a build step with its output sent to standard error."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("e2ebench: no program sources next to the benchmark", file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    return run_quiet(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "e2ebench")
    if not build(build_dir):
        print("e2ebench: build failed", file=sys.stderr)
        return 1

    data = os.path.join(HERE, "data", "mcnc")
    if not run_quiet([os.path.join(build_dir, "checker_test"), data]):
        print("e2ebench: the checker failed its own test", file=sys.stderr)
        return 1

    work = os.path.join(build_dir, "run-%d" % os.getpid())
    traces = os.path.join(build_dir, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--data", data, "--work", work,
           "--trace-prefix", os.path.join(traces, "%s-seed%d" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("e2ebench: run failed (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
