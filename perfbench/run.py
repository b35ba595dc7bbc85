#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

All arguments go to perfbench/main.exe; see README.md beside this file.
The build and the run write only inside the repository (_build/ and
.perfbench/).
"""
import os
import subprocess
import sys


def main():
    needed = ("dune-project", "lib", "case_studies", "perfbench/dune-project")
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print("perfbench: not at the root of the repository; missing: "
              + ", ".join(missing), file=sys.stderr)
        return 2
    # the shared dune cache lives outside the repository
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
