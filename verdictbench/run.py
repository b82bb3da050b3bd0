#!/usr/bin/env python3
"""Build SafeFlow with the verdictbench client, then make one benchmark run.

Run from the repository root:

    python3 verdictbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

The build (Release) goes to $CARGO_TARGET_DIR/verdictbench, or to
.bench_build/verdictbench when the variable is unset; inputs, caches and
sockets live in a work directory under it that the client removes again.
The last line of stdout is the JSON result. Per-metric detail (sample
counts, quartiles, p90) and every failed check go to stderr.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ["table1", "scaling", "taint_cycle", "pointer_churn"]


def build(source, build_dir):
    """Configures once, then builds the three targets; False on failure."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target",
                  "verdictbench", "safeflow", "safeflowd"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    root = os.getcwd()
    source = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "verdictbench")
    if not build(source, build_dir):
        sys.stderr.write("verdictbench: build failed\n")
        return 2

    tag = "%s-seed%d" % (args.workload, args.seed)
    command = [
        os.path.join(build_dir, "verdictbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--bin", os.path.join(build_dir, "src", "safeflow"),
        "--corpus", os.path.join(root, "corpus"),
        "--work", os.path.join(build_dir, "work", "%s-%d" % (tag, os.getpid())),
    ]
    if args.trace == "1":
        os.makedirs(os.path.join(build_dir, "traces"), exist_ok=True)
        command += ["--trace-out", os.path.join(build_dir, "traces", tag + ".json")]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
