#!/usr/bin/env python3
"""Build and run the mtt benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere: the script works from the checkout that contains it.
It configures and builds perfbench/ (which compiles the repository's src/)
into the build directory -- $CARGO_TARGET_DIR when set, else .bench_build --
and then runs the benchmark binary.  Build output goes to stderr; the last
line of stdout is the benchmark's JSON result.  Journals and sockets live in
a scratch directory under the build directory that the binary removes on
exit; a traced run writes its spans to <build>/trace-<workload>.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("experiment_catalog", "explore_exhaustive", "fleet_campaign")
# A run measures for --seconds and then checks its outputs; well inside the
# 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    d = os.path.join(ROOT, d)
    rel = os.path.relpath(d, ROOT)
    # Relative paths keep the unix socket path short whatever the checkout.
    return d if rel.startswith("..") else rel


def build(out):
    cmake_dir = os.path.join(out, "cmake")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", "perfbench", "-B", cmake_dir] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "--target", "perfbench",
                    "--parallel", "4"], stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--no-pin", action="store_true",
                    help="leave the threads unpinned (README comparison)")
    ap.add_argument("--smoke", action="store_true",
                    help="reduced sizes: every phase and check in seconds")
    ap.add_argument("--self-test", action="store_true",
                    help="smoke runs plus a wrong input for every check")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    os.chdir(ROOT)
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    tmp = os.path.join(out, "tmp")
    if args.self_test:
        cmd = [binary, "--self-test", "--tmp-dir", tmp]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp-dir", tmp]
        if args.trace:
            cmd += ["--trace-out",
                    os.path.join(out, "trace-%s.jsonl" % args.workload)]
        if args.no_pin:
            cmd.append("--no-pin")
        if args.smoke:
            cmd.append("--smoke")
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
