#!/usr/bin/env python3
"""Benchmark smoke gate: short benchmark runs whose re-checks must pass.

    python3 scripts/bench_smoke.py

Runs, from the root of the checkout,

    perfbench/run.py --workload frontier --seed 7919 --seconds 2 --trace 0
    perfbench/run.py --workload fleet --seed 202 --seconds 2 --trace 0
    perfbench/run.py --workload serve --seed 7919 --seconds 2 --trace 0

and exits nonzero unless each run succeeded and its result line (the
last line of standard output) reports "correct": true and "failed": 0.
The benchmark re-checks every decision without the LP: Farkas
certificates by Certificate.check, containment witnesses by recounting,
refuters by cone membership.  It exits 0 even when a re-check fails, so
its exit status alone is not a gate.  Fleet seed 202 draws the pair
T(X1),T(X2),T(X3) vs T(X1),T(X2), whose witness has 4,096 rows, so the
recount of a large bit-coded normal witness runs on every push.  The
serve run sends fleet pairs to a `bagcqc serve` child over its socket
and re-checks the daemon's replies the same way.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = [("frontier", "7919"), ("fleet", "202"), ("serve", "7919")]


def run_one(workload, seed):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", seed, "--seconds", "2",
           "--trace", "0"]
    tag = f"bench-smoke [{workload} seed {seed}]"
    run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"{tag}: run.py exited {run.returncode}", file=sys.stderr)
        return False
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"{tag}: unparsable result line: {lines[-1]!r}",
              file=sys.stderr)
        return False
    print(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        print(f"{tag}: correct={result.get('correct')} "
              f"failed={result.get('failed')}", file=sys.stderr)
        return False
    return True


def main():
    ok = [run_one(workload, seed) for workload, seed in RUNS]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
