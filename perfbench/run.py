#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 10 --trace 0

Every argument is passed on to the benchmark executable (see bench.ml for
the flags).  The last line of standard output is the benchmark's JSON
result.  If the build fails the script exits with code 2 and prints no
result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def env():
    e = dict(os.environ)
    # Keep every build artefact inside the checkout.
    e["DUNE_CACHE"] = "disabled"
    return e


def build():
    cmd = ["dune", "build", "--root", ROOT, "--display", "quiet", "./perfbench/bench.exe"]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S, text=True)
    except (OSError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"perfbench: build failed: {exc}\n")
        return False
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: build failed\n")
        return False
    return True


def commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main(argv):
    if not build():
        return 2
    args = list(argv)
    if "--commit" not in args:
        args += ["--commit", commit()]
    try:
        proc = subprocess.run([EXE] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
