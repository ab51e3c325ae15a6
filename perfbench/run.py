#!/usr/bin/env python3
"""Serving benchmark runner: builds perfbench from this checkout, runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S --trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
repository's libraries plus the harness (Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later calls
rebuild incrementally. Workloads: warm_read, cold_compare, edit_read,
routed_read (see perfbench/README.md); `all` runs each in turn. The last
stdout line of a workload's run is its result object; build output goes to
stderr.

--self-test runs short workloads with one expected value deliberately
corrupted, or with one request the server must refuse, and checks that each
run is refused (exit status 1, "correct": false), plus one clean run that
must pass.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["warm_read", "cold_compare", "edit_read", "routed_read"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    """Configures (once) and builds the perfbench target; False on failure."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                print(f"perfbench: build step failed: {err}", file=sys.stderr)
                return False
            if done.returncode != 0:
                print(f"perfbench: build step failed: {' '.join(step)}", file=sys.stderr)
                return False
    return True


def source_stamp():
    """git sha when the checkout is a repository, plus a digest of the sources."""
    sha = "none"
    try:
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
        if got.returncode == 0:
            sha = got.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return f"{sha} src:{digest.hexdigest()[:12]}"


def run_bench(binary, scratch, argv, stamp):
    """Runs perfbench, relaying its stdout; returns (exit code, stdout lines)."""
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, *argv, "--scratch", scratch, "--git-sha", stamp]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 124, []
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def self_test(binary, scratch, stamp):
    cases = [  # (workload, corrupted value or None, exit status expected)
        ("warm_read", None, 0),
        ("warm_read", "lcs", 1),
        ("warm_read", "window", 1),
        ("warm_read", "plot", 1),
        ("warm_read", "request", 1),
        ("cold_compare", "lcs", 1),
        ("edit_read", "window", 1),
        ("edit_read", "kernel", 1),
        ("routed_read", "lcs", 1),
    ]
    ok = True
    for workload, corrupt, want in cases:
        argv = ["--workload", workload, "--seed", "7", "--seconds", "2", "--trace", "0"]
        if corrupt:
            argv += ["--corrupt", corrupt]
        code, lines = run_bench(binary, scratch, argv, stamp)
        result = json.loads(lines[-1]) if lines else {}
        passed = code == want and result.get("correct") == (want == 0)
        ok &= passed
        print(f"{'PASS' if passed else 'FAIL'} {workload} corrupt={corrupt}: exit {code}, "
              f"correct={result.get('correct')}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    binary = os.path.join(out_dir, "perfbench")
    scratch = os.path.join(out_dir, "scratch")
    stamp = source_stamp()
    if args.self_test:
        return self_test(binary, scratch, stamp)
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code, lines = run_bench(binary, scratch, ["--workload", workload, "--seed", args.seed,
                                                  "--seconds", args.seconds, "--trace",
                                                  args.trace], stamp)
        for line in lines:
            print(line, flush=True)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
