#!/usr/bin/env python3
"""Builds and runs the NetShare benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
library from ../src together with the benchmark (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
reuse that build. The build log goes to stderr. The benchmark's stdout is
passed through after its last line has been checked: a JSON object whose
metric names are exactly the end_to_end (--trace 0) or per_layer (--trace 1)
names listed in BENCHMARK.json. Exit status is nonzero on a build failure,
a correctness mismatch, a malformed result or a timeout.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e, 3)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", build_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    out = proc.stdout
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with %d" % proc.returncode)

    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(out)
        fail("last line is not a JSON result")
    want = expected_metrics(args.trace)
    got = result.get("metrics", {})
    if set(got) != set(want):
        sys.stderr.write(out)
        fail("metric names differ from BENCHMARK.json: missing %s, extra %s"
             % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        if got[name].get("unit") != unit:
            fail("metric %s has unit %r, BENCHMARK.json says %r"
                 % (name, got[name].get("unit"), unit))
    if not result.get("correct"):
        sys.stderr.write(out)
        fail("outputs are not correct")
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
