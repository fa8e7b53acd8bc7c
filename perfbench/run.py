#!/usr/bin/env python3
"""Leaf-to-root aggregation benchmark: build, run one workload, check, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload deploy64 --seed 1 --seconds 10 --trace 0

Builds the perfbench binary from the library sources into .bench_build/
(CMake, Release), runs the workload once and prints its table. The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Exits non-zero without a result line when the build fails, the
run fails, or the output does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("deploy64", "saturate64", "sim256")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-6000:])
        fail(what + " failed (exit %d)" % proc.returncode)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
               "-j", jobs], "build")
    binary = os.path.join(BUILD, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def source_identity():
    """The git sha when this is a git checkout, else a digest of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(traced):
    """Metric name -> unit, from BENCHMARK.json when it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if traced else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(result, traced):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail("'%s' is not a count" % key)
    if result["attempted"] < 1:
        fail("nothing was attempted")
    for name, metric in result["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s has no finite value" % name)
    expected = expected_metrics(traced)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            missing = sorted(set(expected) - set(got))
            extra = sorted(set(got) - set(expected))
            fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
                 "or units differ" % (missing, extra))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    os.makedirs(TRACES, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", source_identity(), "--trace-dir", TRACES]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail("run failed (exit %d): %s" % (proc.returncode, lines[-1]))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1][:200])
    check_result(result, bool(args.trace))
    if not result["correct"]:
        fail("outputs are not correct")
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
