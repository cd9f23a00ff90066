#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

    python3 servebench/run.py --workload const_leaf --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; durable data dirs and trace files go there
too. The output of serve_bench passes through: every metric with its unit,
then one JSON object as the last line. The exit status is serve_bench's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("const_leaf", "srci_lists", "const_narrow", "update_mix")


def build(build_dir):
    """Configures (once) and builds serve_bench + rsse_serverd; build logs
    go to stderr so stdout carries only the benchmark's output."""
    obj = os.path.join(build_dir, "servebench")
    if not os.path.exists(os.path.join(obj, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", obj, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(
        ["cmake", "--build", obj, "-j", jobs, "--target", "serve_bench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(obj, "bin", "serve_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    work = os.path.join(build_dir, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--work-dir={work}"]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace=" + os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json"))
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
