#!/usr/bin/env python3
"""Benchmark smoke gate: a short frontier run whose re-checks must pass.

    python3 scripts/bench_smoke.py

Runs `perfbench/run.py --workload frontier --seed 7919 --seconds 2
--trace 0` from the root of the checkout and exits nonzero unless the
run succeeded and its result line (the last line of standard output)
reports "correct": true and "failed": 0.  The benchmark re-checks every
decision without the LP: Farkas certificates by Certificate.check,
containment witnesses by recounting, refuters by cone membership.  It
exits 0 even when a re-check fails, so its exit status alone is not a
gate.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CMD = [sys.executable, os.path.join("perfbench", "run.py"),
       "--workload", "frontier", "--seed", "7919", "--seconds", "2",
       "--trace", "0"]


def main():
    run = subprocess.run(CMD, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        print(f"bench-smoke: run.py exited {run.returncode}", file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print(f"bench-smoke: unparsable result line: {lines[-1]!r}",
              file=sys.stderr)
        return 1
    print(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        print(f"bench-smoke: correct={result.get('correct')} "
              f"failed={result.get('failed')}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
