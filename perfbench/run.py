#!/usr/bin/env python3
"""Build and run one workload of the mpsched benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0

Builds perfbench/perfbench.exe in the release profile (build tree in
.perfbench_build/, dune's shared cache off so nothing is read or written
outside the repository), runs it, and passes its standard output through.
The last line is one JSON object with the keys correct, attempted, failed
and metrics.  A traced run (--trace 1) also writes its spans to
.perfbench_out/spans-<workload>-<seed>.jsonl.  Exits non-zero, without a
result line, if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".perfbench_build"
OUT_DIR = ".perfbench_out"
PROFILE = "release"
WORKLOADS = ["compile-cold", "compile-parallel", "exact-search", "serve-warm"]
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found")


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = dune_command() + [
        "build", "--root", ".", "--profile", PROFILE, "--build-dir", BUILD_DIR,
        "./perfbench/perfbench.exe",
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "perfbench.exe")


def commit():
    """The git commit, or a digest of the sources when there is no .git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ["lib", "perfbench", "dune-project"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as fh:
                digest.update(fh.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit(), "--profile", PROFILE]
    if args.trace:
        os.makedirs(os.path.join(ROOT, OUT_DIR), exist_ok=True)
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench: run failed with code {done.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit("perfbench: malformed result line")
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main()
