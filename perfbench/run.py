#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/GLOSSARY.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_uncapped --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload serve_mixed --seed fresh --seconds 10 --trace 1
    python3 perfbench/run.py --smoke

The benchmark binary is built from source into .bench_build/perfbench on
first use (CMake, the repository's RelWithDebInfo default). `--seed fresh`
draws a seed that no one chose, prints it, and runs with it: a claim made
on the tuning seeds can then be checked on inputs nobody tuned against.
The binary's last stdout line is the result JSON; this script checks that
its metric names match BENCHMARK.json and passes it through. In an
untraced run it first times the workload's set-up alone in
SETUP_PROCESSES fresh processes, and reports as setup_s the median of
those and the measured run's own set-up: every one of them is cold.
"""

import json
import os
import secrets
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Set-up-only processes per untraced run, besides the measured run itself.
SETUP_PROCESSES = 8


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv):
    args = list(argv)
    if "--seed" in args:
        i = args.index("--seed") + 1
        if i < len(args) and args[i] == "fresh":
            args[i] = str(secrets.randbits(63))
            print("perfbench: fresh seed " + args[i], file=sys.stderr)
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    measuring = "--workload" in args
    if measuring:
        names = expected_metrics(trace)  # before building: fail fast without BENCHMARK.json
    build()
    setups = []
    if measuring and not trace:
        for _ in range(SETUP_PROCESSES):
            proc = subprocess.run([BINARY] + args + ["--setup-only"], cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
            if proc.returncode != 0:
                fail("set-up failed (exit %d)" % proc.returncode)
            setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True)
    out = proc.stdout
    if not measuring:
        sys.stdout.write(out)
        return proc.returncode
    lines = out.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail("no result from the benchmark binary (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if sorted(result["metrics"]) != sorted(names):
        fail("metric names differ from BENCHMARK.json: %s" % sorted(result["metrics"]))
    if setups:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
        print("perfbench: setup_s median of %d cold set-ups" % (len(setups) + 1),
              file=sys.stderr)
        print(json.dumps(result))
    else:
        print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
