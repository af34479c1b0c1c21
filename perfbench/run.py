#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload spec_paper --seed 1 --seconds 30 \
        --trace 0

The first call configures and builds `perfbench` (the simulator libraries
from src/ plus perfbench/harness/) into .bench_build/; later calls only
rebuild what changed. The binary's last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_DIR = "perfbench"
WORKLOADS = ("spec_paper", "spec_churn", "dissem_stream")
REFERENCE = os.path.join(BENCH_DIR, "reference_digests.txt")


def non_negative_int(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError(
            f"not a non-negative integer: {text!r}")
    return int(text)


def positive_int(text):
    value = non_negative_int(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload.", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=non_negative_int, default=1)
    parser.add_argument("--seconds", type=positive_int, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke-sized inputs (self-test)")
    parser.add_argument("--reference", default=REFERENCE,
                        help="file of stored pass digests")
    return parser.parse_args(argv)


def build_jobs():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    def run(cmd):
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        return result.returncode == 0

    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    if not run(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                "-j", build_jobs()]):
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def git_sha():
    """HEAD of a git checkout rooted here, else "unknown"."""
    if not os.path.exists(".git"):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources (first 16 hex)."""
    digest = hashlib.sha256()
    for root in ("src", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def binary_args(args):
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--reference", args.reference,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.smoke:
        cmd.append("--smoke")
    return cmd


def main(argv):
    args = parse_args(argv)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([binary] + binary_args(args)).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
