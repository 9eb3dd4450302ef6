#!/usr/bin/env python3
"""Determinism test for the mpsched benchmark.

Usage, from the root of the repository:

    python3 perfbench/determinism.py [--seed N]

For every workload, runs the benchmark twice with the same seed and
requires identical deterministic counts (cycles, antichains, exact-search
nodes) and, for serve-warm, an identical response stream over the first
timed pass.  Then runs compile-parallel traced: its probe classifies every
graph at jobs 1 and on a pool of nproc domains and fails the run unless
both classifications agree.  Exits non-zero on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def bench(exe, workload, seed, trace):
    out = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.exit(f"determinism: {workload} run failed with code {out.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    exe = run.build()
    ok = True
    for workload in run.WORKLOADS:
        runs = [bench(exe, workload, args.seed, 0) for _ in range(2)]
        same = [(d["counts"], d["first_pass_digest"]) for d, _ in runs]
        correct = all(r["correct"] for _, r in runs)
        stream = f" responses {same[0][1][:12]}" if same[0][1] else ""
        print(f"{workload}: counts {same[0][0]}{stream} "
              f"{'repeat' if same[0] == same[1] else 'DIFFER: ' + str(same[1])}"
              f"{'' if correct else ', outputs wrong'}")
        ok = ok and same[0] == same[1] and correct
    _, traced = bench(exe, "compile-parallel", args.seed, 1)
    agree = traced["correct"]
    print(f"compile-parallel: jobs 1 and nproc classifications "
          f"{'agree' if agree else 'DIFFER'} ({traced['attempted']} checks)")
    sys.exit(0 if ok and agree else 1)


if __name__ == "__main__":
    main()
