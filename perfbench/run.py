#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits non-zero without a
result when the program's sources are absent or do not build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(targets):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "perfbench"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"] if _have("ninja") else []
    steps = [configure, ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return build_dir


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep))


def main():
    if sys.argv[1:] == ["--selftest"]:
        build_dir = build(["perfbench_test"])
        sys.exit(subprocess.run([os.path.join(build_dir, "perfbench_test")]).returncode)
    build_dir = build(["perfbench"])
    binary = os.path.join(build_dir, "perfbench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
