#!/usr/bin/env python3
"""Gate deterministic perfbench counters against a committed baseline.

Usage (from the repository root):

    python3 tools/perf_gate.py

The baseline (bench/baselines/perfbench.json) lists perfbench runs and, per
run, the metrics to check. "exact" metrics repeat to the last digit for a
seed (the simulator's bytes, allocations, freshness and event count) and
must match exactly. "within" metrics come from a real-socket run and must
stay within a relative bound of the baseline, in either direction: a gain
beyond the bound means the baseline is stale. On any drift the script
exits 1 and prints the baseline re-recorded from this tree; a change that
moves a counter on purpose commits that as the new baseline file.
Wall-time metrics are never gated.
"""

import argparse
import copy
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "bench", "baselines", "perfbench.json")


def run_perfbench(run):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", run["workload"], "--seed", str(run["seed"]),
           "--seconds", str(run["seconds"]), "--trace", str(run["trace"])]
    print("perf_gate: " + " ".join(cmd[1:]), flush=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perf_gate: perfbench failed (exit %d)" % proc.returncode)
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])["metrics"]


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    with open(BASELINE) as f:
        baseline = json.load(f)

    drift = []
    measured = copy.deepcopy(baseline)
    for run, now in zip(baseline["runs"], measured["runs"]):
        metrics = run_perfbench(run)
        label = "%s seed %d trace %d" % (run["workload"], run["seed"],
                                         run["trace"])
        for name, want in run.get("exact", {}).items():
            got = metrics[name]["value"]
            now["exact"][name] = got
            if got != want:
                drift.append("%s: %s = %r, baseline %r (exact)" %
                             (label, name, got, want))
        for name, want in run.get("within", {}).items():
            got = metrics[name]["value"]
            now["within"][name]["value"] = got
            if abs(got / want["value"] - 1.0) > want["bound"]:
                drift.append("%s: %s = %.4g, baseline %.4g (bound %g)" %
                             (label, name, got, want["value"], want["bound"]))

    if not drift:
        print("perf_gate: all counters match the baseline")
        return
    for line in drift:
        print("perf_gate: DRIFT " + line)
    print("perf_gate: this tree's baseline, to commit if the change is "
          "intended:")
    print(json.dumps(measured, indent=2))
    sys.exit("perf_gate: %d counter(s) moved" % len(drift))


if __name__ == "__main__":
    main()
