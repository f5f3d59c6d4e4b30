#!/usr/bin/env python3
"""End-to-end sweep benchmark of the rcbroadcast simulator.

Builds librcb and the rcb_perfbench binary from source (perfbench/CMakeLists.txt)
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
binary from the repository root:

    python3 perfbench/run.py --workload broadcast_budget --seed 7 \
        --seconds 10 --trace 0

rcb_perfbench prints every metric as "name value unit" and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics.  --trace 1 reports the per-layer split instead of the end-to-end
metrics.  Workloads live in perfbench/workloads.json.  Build output goes to
stderr, so stdout carries only the benchmark report.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds rcb_perfbench; returns its path."""
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(max(os.cpu_count() or 1, 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "rcb_perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "rcb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or several comma-separated")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    result = subprocess.run([
        binary, "--config", os.path.join(HERE, "workloads.json"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work_dir", os.path.join(os.path.abspath(build_dir), "work")])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
