#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, which compiles the library
from the repository's sources) into $CARGO_TARGET_DIR or .bench_build, then
runs one workload with the settings from perfbench/workloads.json.  Build
output goes to stderr; the harness's table and its final JSON result line go
to stdout.  The exit code is the harness's: 0 only when every answer was
correct.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures once, then builds the serve_bench target; returns its path."""
    threads = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "serve_bench", "-j",
         threads],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "serve_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        sys.exit("run.py: unknown workload %r (known: %s)" % (
            args.workload, ", ".join(sorted(workloads))))
    settings = workloads[args.workload]

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("run.py: build failed: %s" % e)

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(ROOT, ".bench_work")]
    for key, value in settings.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
