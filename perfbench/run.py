#!/usr/bin/env python3
"""Builds and runs the XInsight benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `xinsight-serve` from the
repository's workspace and the `perfbench` program from this directory (both
into `$CARGO_TARGET_DIR`, default `.bench_build`), then runs it; its last
line of standard output is the JSON result.  Exits non-zero, printing no
result, if either build fails.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Build output goes to stderr so stdout carries only the result.
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    if not (build(os.path.join(ROOT, "Cargo.toml"),
                  "-p", "xinsight-service", "--bin", "xinsight-serve")
            and build(os.path.join(HERE, "Cargo.toml"))):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:],
             "--serve-bin", os.path.join(release, "xinsight-serve"),
             "--work-dir", os.path.join(ROOT, ".bench_work")]
    return subprocess.run(bench).returncode


if __name__ == "__main__":
    sys.exit(main())
