#!/usr/bin/env python3
"""End-to-end sweep benchmark: build the harness from source, run it, and
pass its one-line JSON result through after checking it names every metric
BENCHMARK.json lists, with the listed unit.

    python3 sweepbench/run.py --workload paper-corp --seed 1 --seconds 10 --trace 0
    python3 sweepbench/run.py --self-test

Run from the repository root. The build goes to .bench_build/sweepbench
(RelWithDebInfo, the repository's default build type); the last line of
stdout is the result, everything else goes to stderr.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "sweepbench"
BINARY = BUILD / "sweep_bench"
DIGESTS = HERE / "digests.txt"
RUN_TIMEOUT_S = 170  # a run must end within 180 s


def fail(msg):
    print(f"sweepbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sweep_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def run_harness(args):
    cmd = [str(BINARY), *args, "--digests", str(DIGESTS), "--out-dir", str(BUILD)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness ran past {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"harness exited {done.returncode}: {' '.join(cmd)}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"harness result is not JSON: {lines[-1][:200]}")


def check_result(result, trace):
    """Return a list of problems: keys, counts, and every listed metric
    present with its unit and a finite value, nothing unlisted."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"attempted = {result['attempted']!r}")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append(f"failed = {result['failed']!r}")
    wanted = {m["name"]: m["unit"]
              for m in spec()["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name, unit in wanted.items():
        entry = got.get(name)
        if entry is None:
            problems.append(f"missing metric {name}")
        elif entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, want {unit!r}")
        elif not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            problems.append(f"{name}: value {entry.get('value')!r}")
    for name in set(got) - set(wanted):
        problems.append(f"unlisted metric {name}")
    return problems


def self_test():
    """Tiny-size run of every workload, traced and untraced, at the pinned
    seed; then one run with a corrupted pinned digest, which must count as
    a failed replica."""
    build()
    problems = []
    for w in spec()["workloads"]:
        for trace in (0, 1):
            result = run_harness(["--workload", w["name"], "--seed", "1",
                                  "--seconds", "0", "--trace", str(trace),
                                  "--tiny"])
            found = check_result(result, trace)
            if not result.get("correct") or result.get("failed") != 0:
                found.append("outcome check failed at the pinned seed")
            problems += [f"{w['name']} trace={trace}: {p}" for p in found]
            print(f"self-test: {w['name']} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", file=sys.stderr)
    corrupt = run_harness(["--workload", "metro", "--seed", "1", "--seconds", "0",
                           "--trace", "0", "--tiny", "--corrupt-digest"])
    if corrupt["correct"] or corrupt["failed"] < 1:
        problems.append("a corrupted pinned digest was not counted as failed")
    print(f"self-test: corrupted digest counted as failed: "
          f"{'yes' if corrupt['failed'] >= 1 else 'NO'}", file=sys.stderr)
    if problems:
        for p in problems:
            print(f"self-test: {p}", file=sys.stderr)
        sys.exit(1)
    print("self-test passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    names = [w["name"] for w in spec()["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {', '.join(names)}")
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")
    build()
    result = run_harness(["--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds),
                          "--trace", str(args.trace)])
    problems = check_result(result, args.trace)
    if problems:
        fail("; ".join(problems))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
