#!/usr/bin/env python3
"""Host-speed benchmark of the SGXBounds simulator.

Builds the simulator and the hostbench binary from source (once; later runs
only re-check the build), then runs one workload in its own process:

    python3 hostbench/run.py --workload paper_live --seed 7 --seconds 40 --trace 0

The last line of stdout is the binary's JSON result. Build output and its
progress lines go to stderr. The build lives in
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench) under the
repository root, next to per-run reports and, for --trace 1, span files.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper_live", "ir_sweep_farm"]
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "hostbench")


def build():
    """Configures on first use, then brings the binary up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: no simulator sources next to %s" % HERE)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs, "--target", "hostbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(bdir, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--size", default="full", choices=["full", "tiny"],
                        help="tiny: the smoke test's small batches")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    reports = os.path.join(build_dir(), "reports")
    os.makedirs(reports, exist_ok=True)
    stem = os.path.join(reports, "%s-%s-seed%d-trace%s" % (args.workload, args.size, args.seed,
                                                            args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--size", args.size,
           "--pinned", os.path.join(HERE, "pinned", args.workload + ".txt"),
           "--report", stem + ".json"]
    if args.trace == "1":
        cmd += ["--spans", stem + ".spans.json"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("hostbench: %s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
