#!/usr/bin/env python3
"""Build and run the hcsearch benchmark (see README.md in this directory).

Run from the repository root:

    python3 perfbench/run.py --workload macro_clean --seed 1 --seconds 25 --trace 0

The first call configures and builds perfbench/ (which compiles the
library sources under src/) into .bench_build/hcsbench; later calls only
rebuild what changed. Build output goes to stderr, so hcsbench's last
stdout line is the result JSON. With --trace 1 the Chrome trace_event
file lands in .bench_build/traces/.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hcsbench")
WORKLOADS = ("macro_clean", "macro_vis", "event_random", "serve_zipf")
# Every workload run ends well inside this; a hang is killed and fails.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds hcsbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "session.hpp")):
        sys.exit("run.py: library sources not found next to perfbench/ "
                 "(expected src/core/session.hpp)")
    try:
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "-j",
                        str(os.cpu_count() or 1)],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"run.py: build failed: {error}")
    return os.path.join(BUILD, "hcsbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    command = [build(), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
