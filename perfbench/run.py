#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it with the given arguments.

Run from the repository root:

    python3 perfbench/run.py --workload echo-tcp --seed 1 --seconds 20 --trace 0

Cargo output goes to stderr; the benchmark's own report, ending in one JSON
line, goes to stdout. Build artefacts land in $CARGO_TARGET_DIR (default
.bench_build). A failed build exits nonzero without printing a result.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        stdout=sys.stderr,
        env=env,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode if build.returncode > 0 else 1
    exe = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    os.execv(exe, [exe] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
