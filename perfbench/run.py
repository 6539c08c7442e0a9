#!/usr/bin/env python3
"""Gateway benchmark runner.

    python3 perfbench/run.py --workload steady|churn|serial --seed N \
        --seconds S --trace 0|1

Builds perfbench/ (and through it the repository's libraries) as a
Release package under .bench_build/, runs gateway_bench, and prints its
result as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Across runs in one checkout it keeps a ledger (.bench_build/ledger.json)
of each trace's stream digest, verdict-set digest and identification
accuracy, keyed by trace and seed. `steady` and `serial` replay the same
trace, so each must reproduce what the other recorded; any mismatch makes
the run incorrect. Exits non-zero, without a result line, when the build
or gateway_bench fails.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "gateway_bench")
LEDGER = os.path.join(ROOT, ".bench_build", "ledger.json")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# Workloads that replay the same rendered trace share a ledger key.
TRACE_OF = {"steady": "steady", "serial": "steady", "churn": "churn"}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed: " + " ".join(step))
            return False
    return True


def check_ledger(workload, seed, stdout):
    """Compares this run's digests with earlier runs of the same trace."""
    stream = re.search(r"stream_hash=([0-9a-f]{16})", stdout)
    verdicts = re.search(r"^verdict_digest ([0-9a-f]{16})$", stdout, re.M)
    accuracy = re.search(r"^identify_accuracy_exact (\d+/\d+)$", stdout, re.M)
    if not (stream and verdicts and accuracy):
        log("gateway_bench output lacks its digests")
        return False
    record = {"stream_hash": stream.group(1),
              "verdict_digest": verdicts.group(1),
              "identify_accuracy": accuracy.group(1)}
    ledger = {}
    if os.path.exists(LEDGER):
        with open(LEDGER) as f:
            ledger = json.load(f)
    key = "%s:%d" % (TRACE_OF[workload], seed)
    earlier = ledger.get(key)
    if earlier is not None:
        if earlier != record:
            log("GATE FAILED: %s run differs from an earlier run of trace %s: "
                "%s vs %s" % (workload, key, record, earlier))
            return False
        return True
    ledger[key] = record
    tmp = LEDGER + ".tmp"
    with open(tmp, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(tmp, LEDGER)
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(TRACE_OF))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.csv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("gateway_bench timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log("gateway_bench printed no result (exit code %d)" % done.returncode)
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("gateway_bench result has unexpected keys: %s" % sorted(result))
        return 1
    if result["correct"] and not check_ledger(args.workload, args.seed,
                                              done.stdout):
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if done.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
