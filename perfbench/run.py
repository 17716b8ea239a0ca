#!/usr/bin/env python3
"""Builds perfbench from the sources of this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). After the measured run, a short second run of
the same binary, always traced, must reproduce every deterministic field of the
measured run byte for byte: modeled times and counts, and for a traced measured
run also the per-layer modeled times and allocations. An untraced measured run
is thus checked against a traced one. Otherwise the benchmark exits nonzero
without a result. The last line of standard output is the result object of the
measured run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mesh_rebuild", "mesh_adapt", "forall_vm")
# Ops in the determinism check run: warm-up, the window, and one repeat of it.
CHECK_OPS = 6


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cache = os.path.join(build_dir, "CMakeCache.txt")
    # A build tree configured for another copy of the sources is rebuilt.
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return build_dir, os.path.join(build_dir, "perfbench")


def run_binary(cmd, timeout):
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: " + " ".join(cmd))
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    parsed = [json.loads(line) for line in lines]
    fingerprint = next((p["fingerprint"] for p in parsed if "fingerprint" in p),
                       None)
    if fingerprint is None or "correct" not in parsed[-1]:
        fail("malformed output: " + " ".join(cmd))
    return lines, fingerprint, parsed[-1]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir, binary = build()
    common = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    measured = common + ["--seconds", str(args.seconds),
                         "--trace", str(args.trace)]
    if args.trace:
        measured += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.csv")]
    lines, fingerprint, _ = run_binary(measured, timeout=150)

    # Self-test of determinism: a second, traced run. Its fingerprint holds
    # every field a traced or an untraced measured run can have.
    check = common + ["--ops", str(CHECK_OPS), "--setups", "1", "--trace", "1"]
    _, check_fingerprint, _ = run_binary(check, timeout=60)
    missing = sorted(fingerprint.keys() - check_fingerprint.keys())
    if missing:
        fail("the check run lacks fields: " + ", ".join(missing))
    differing = sorted(k for k in fingerprint
                       if fingerprint[k] != check_fingerprint[k])
    if differing:
        for k in differing:
            print(f"perfbench: {k}: {fingerprint[k]!r} != "
                  f"{check_fingerprint[k]!r}", file=sys.stderr)
        fail("deterministic fields differ between two runs of one seed")

    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
