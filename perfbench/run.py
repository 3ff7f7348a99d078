#!/usr/bin/env python3
"""Builds and runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the perfbench harness from source with CMake (into
$CARGO_TARGET_DIR, default .bench_build, under the checkout root), runs the
workload in its own process, and relays its output. The last line printed
is one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json declares for the run (end_to_end with --trace 0, per_layer
with --trace 1). A per-layer metric the workload does not exercise is
reported as 0: that layer is idle there. Exits non-zero, without a result
line, when the build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (src/CMakeLists.txt)")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", HERE, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", build_dir, "--target",
                          "perfbench", "-j", "4"])
            for cmd in steps:
                if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    work_dir = os.path.join(build_dir, "work", "%s-%d" % (args.workload,
                                                          os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    for name in os.listdir(work_dir):
        if name.endswith(".bin"):
            os.remove(os.path.join(work_dir, name))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("%s exited with %d" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = result["metrics"].pop(m["name"], None)
        if got is None:
            if not args.trace:
                fail("workload did not report " + m["name"])
            got = {"value": 0, "unit": m["unit"]}  # idle layer
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, declared in %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = got
    if result["metrics"]:
        fail("undeclared metrics: " + ", ".join(sorted(result["metrics"])))
    result["metrics"] = metrics
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
