#!/usr/bin/env python3
"""swmond end-to-end benchmark: build, then run one workload once.

    python3 e2e_bench/run.py --workload table1_mix --seed 1 --seconds 10 --trace 0

Builds e2e_bench/ (which compiles the swmon libraries from src/) into
.bench_build/e2e_bench/build, then runs the swmond_e2e binary from the
repository root. Its stdout is passed through; the last line is the JSON
result. Exits non-zero if the build or the run fails, or if the run's
output is not correct. See NOTES.md.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(".bench_build", "e2e_bench")  # relative to ROOT
BUILD = os.path.join(ROOT, OUT, "build")
RUN_TIMEOUT_S = 175


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "swmond_e2e",
                  "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                                     timeout=850)
            except (OSError, subprocess.TimeoutExpired) as e:
                print(f"build failed: {e}", file=sys.stderr)
                return None
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-3000:]
                print(f"build failed ({' '.join(cmd[:2])}):\n{tail}",
                      file=sys.stderr)
                return None
    return os.path.join(BUILD, "swmond_e2e")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(OUT, "work"), "--git-sha", git_sha()]
    try:
        return subprocess.call(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
