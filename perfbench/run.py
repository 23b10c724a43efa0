#!/usr/bin/env python3
"""Build the SemperOS benchmark from source and run one workload.

Run from anywhere inside a checkout of the repository:

    python3 perfbench/run.py --workload apps|revoke_tree|sessions \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

The program is built with dune into .bench_build/ at the root of the
checkout; digests and span files go to .bench_build/perfbench/. The
last line of standard output is the benchmark's JSON result (see
README.md in this directory). Exits 2 without a result when the
checkout does not hold the simulator's sources, and 3 when the program
has not finished 60 seconds after --seconds.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
STATE_DIR = os.path.join(BUILD_DIR, "perfbench")
MARGIN_S = 60


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: no simulator sources (dune-project, lib/) in " + ROOT, file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "--cache", "disabled", "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, timeout=850)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(STATE_DIR, exist_ok=True)
    # The traced run's GC pauses come from the runtime's event ring,
    # which is a file; keep it inside the build directory.
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=STATE_DIR)
    # The program stops measuring after --seconds; the margin covers its
    # last iteration and the accuracy report that follows.
    args = argparse.ArgumentParser(add_help=False)
    args.add_argument("--seconds", type=int, default=10)
    timeout = args.parse_known_args()[0].seconds + MARGIN_S
    sys.stdout.flush()
    try:
        return subprocess.run([EXE, *sys.argv[1:], "--state-dir", STATE_DIR], env=env,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: no result within --seconds + %d s; stopped" % MARGIN_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
