#!/usr/bin/env python3
"""Build and run the bagcqc benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 20 --trace 0

Builds the benchmark and the bagcqc binary from source with dune, then
runs one workload.  The last line of standard output is the result
object; progress and the build log go to standard error.  The exit
status is the benchmark's, or the build's when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, "_build", "default")


def one_cpu():
    """Pins the caller to one of the CPUs it may use.

    The serve workload runs its client and the daemon it starts on that
    one CPU, so a request never waits for the host to wake a second,
    idle CPU: on a shared virtual machine that wake-up takes from
    microseconds to milliseconds, and the slowest percentiles then
    measured the host rather than the daemon."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bagbench.exe", "./bin/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
        # the shared build cache lives outside the checkout
        env=dict(os.environ, DUNE_CACHE="disabled"))
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    bench = subprocess.run(
        [os.path.join(BUILD, "perfbench", "bagbench.exe"),
         "--main-exe", os.path.join(BUILD, "bin", "main.exe"),
         # relative: the daemon's socket lives here, and socket paths are short
         "--out-dir", os.path.join("perfbench", "_out")] + sys.argv[1:],
        cwd=ROOT, preexec_fn=one_cpu if "serve" in sys.argv[1:] else None)
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
