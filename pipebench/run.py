#!/usr/bin/env python3
"""Build the pipeline benchmark from source and run one workload.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The benchmark is
built with dune into the checkout's own _build directory (the shared
dune cache is disabled so nothing is written outside the checkout);
build output goes to stderr.  The benchmark's standard output is passed
through unchanged: its last line is the JSON result.  Exits non-zero,
without a result, when the build fails or the run fails or overruns.
"""

import os
import subprocess
import sys

TARGET = "pipebench/pipebench.exe"
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("pipebench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(root, "_build", "default", TARGET)
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("pipebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
