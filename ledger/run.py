#!/usr/bin/env python3
"""Builds the layer ledger from source and runs one of its workloads.

Run from the repository root:

    python3 ledger/run.py --workload cold_kernels --seed 1 --seconds 15 --trace 0

The libraries and the driver build into .bench_build/ledger (build
output goes to stderr). The driver prints per-kernel rows, counts and
findings, and as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 1 it also writes
a Chrome trace-event file next to the build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "ledger_driver", "-j", jobs],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ledger_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.join(os.getcwd(), ".bench_build", "ledger")
    try:
        driver = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"ledger: build failed: {e}", file=sys.stderr)
        return 1

    # Counts from an earlier run are compared only within one build.
    st = os.stat(driver)
    counts_dir = os.path.join(build_dir, "counts")
    os.makedirs(counts_dir, exist_ok=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--counts-dir", counts_dir,
           "--build-id", f"{st.st_size}-{st.st_mtime_ns}"]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
