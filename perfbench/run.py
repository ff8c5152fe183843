#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload (or all).

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default `.bench_build`); its output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. The exit code is the benchmark's: 0 only when
every checked output was correct. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "memtree-perfbench")
    return subprocess.run([exe, *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
