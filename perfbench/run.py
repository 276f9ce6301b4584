#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to `$CARGO_TARGET_DIR` (default `.bench_build`); scratch
files and traces go to `perfbench-work/` inside it. The binary's standard
output is passed through, so its last line is the result object. A failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main() -> int:
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work = os.path.join(target, "perfbench-work")
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
