#!/usr/bin/env python3
"""Build the PTE-Lease benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1   # every workload, one process

The binary is built with dune (release profile) into .bench_build/ and
then run with the same arguments; its last line of standard output is
the JSON result. Build output goes to standard error. The exit code is
the binary's: non-zero when a correctness check fails.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/perfbench.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a PTE-Lease checkout "
              "(no dune-project or lib/ here)", file=sys.stderr)
        return 2
    # Keep every build artifact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", TARGET],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    return subprocess.run([exe] + sys.argv[1:], stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
