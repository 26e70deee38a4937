#!/usr/bin/env python3
"""Build the layer ledger from source and run one workload.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark executable is built with
dune (release profile, dune's shared cache off so every byte it writes
stays under _build/), then run with the given arguments; its standard
output ends with one JSON line of metrics.  Exits non-zero without a
result when the build fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("ledger: dune not found on PATH")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune() + ["build", "--root", ".", "--profile", "release", "./ledger/main.exe"],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("ledger: build failed")
    exe = os.path.join(ROOT, "_build", "default", "ledger", "main.exe")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("ledger: run timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
