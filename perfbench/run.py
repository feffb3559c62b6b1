#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed S --seconds N --trace 0|1

Run it from the root of a checkout. It configures and builds perfbench/
(the valcon library from src/ plus bench_valcon) under $CARGO_TARGET_DIR,
or .bench_build when that is unset, then runs bench_valcon once. With
--trace 1 the spans go to <build dir>/trace-<workload>.jsonl. The last line
of standard output is bench_valcon's result JSON; build output goes to
standard error. The exit code is bench_valcon's, or 1 when the build fails.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures once, then builds incrementally; returns the binary path."""
    os.makedirs(build_dir, exist_ok=True)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the compiler's scratch files and any compiler cache inside the
    # build directory.
    env = dict(os.environ, TMPDIR=tmp, CCACHE_DISABLE="1")
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        generated = ("build.ninja", "Makefile")
        if not any(os.path.exists(os.path.join(build_dir, name))
                   for name in generated):
            configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, env=env,
                           stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       check=True, env=env, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_valcon")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build_root = os.path.join(ROOT,
                              os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--golden", os.path.join(ROOT, "tests", "golden", "full.sha256")]
    if args.trace:
        cmd += ["--trace",
                os.path.join(build_dir, f"trace-{args.workload}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
