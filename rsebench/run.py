#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):
  python3 rsebench/run.py --workload place-icm --seed 2 --seconds 20 --trace 0

The first call configures and builds rsebench/ (the simulator libraries
from src/ plus the benchmark program main.cpp, Release) into
.bench_build/rsebench; later calls rebuild incrementally.  Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.  Spans
of a traced run are written to .bench_build/spans/.  See rsebench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rsebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("rsebench: no simulator sources at src/; run from a full checkout")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "rsebench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "rsebench")


def option(args, name):
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return "none"


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit("rsebench: build failed: %s" % error)
    spans_dir = os.path.join(ROOT, ".bench_build", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans = os.path.join(spans_dir, "%s-seed%s.json" % (option(args, "--workload"),
                                                        option(args, "--seed")))
    command = [binary, "--pins", os.path.join(HERE, "pins.txt"), "--spans", spans] + args
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
