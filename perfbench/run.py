#!/usr/bin/env python3
"""Build `tml serve` and the benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload repair_mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The last line of standard output is the result JSON; per-run result files
and the server's Unix socket live in perfbench/out/.  Exits non-zero, with
no result line, when the build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "_build", "default")
TML = os.path.join(BUILD, "bin", "tml_cli.exe")
BENCH = os.path.join(BUILD, "perfbench", "perfbench.exe")
OUT = os.path.join(ROOT, "perfbench", "out")


def commit():
    try:
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./bin/tml_cli.exe", "./perfbench/perfbench.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    os.makedirs(OUT, exist_ok=True)
    # The socket path is relative to OUT: a Unix socket path may not
    # exceed 108 bytes, however deep the checkout lies.
    return subprocess.run(
        [BENCH, "--tml", TML, "--dir", ".", "--commit", commit()] + sys.argv[1:],
        cwd=OUT).returncode


if __name__ == "__main__":
    sys.exit(main())
