#!/usr/bin/env python3
"""Builds the perfbench driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: offline_corpus, online_steady, online_durable (see
perfbench/README.md). The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the checkout root; the first run configures and
compiles the ftio library and the driver, later runs only check that the
build is current. The last line of standard output is the driver's JSON
result. Exits non-zero, without a result, when the build fails or the
result does not list exactly the metrics BENCHMARK.json names for the mode
(end_to_end with --trace 0, per_layer with --trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline_corpus", "online_steady", "online_durable")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def run_logged(cmd, log_path, env):
    with open(log_path, "a") as log:
        return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log = os.path.join(out, "build.log")
    # Keep compiler caches out of the home directory: the benchmark only
    # writes inside its checkout.
    env = dict(os.environ, CCACHE_DISABLE="1")
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n") not in f.read():
                os.remove(cache)
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if run_logged(configure, log, env) != 0:
            return None
    compile_ = ["cmake", "--build", out, "--target", "perfbench", "-j", BUILD_JOBS]
    if run_logged(compile_, log, env) != 0:
        return None
    return os.path.join(out, "perfbench")


def expected_metrics(trace):
    """{name: unit} of the BENCHMARK.json metrics a run must print."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        manifest = json.load(f)
    section = manifest["per_layer" if trace == "1" else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def valid_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        return False
    metrics = result["metrics"]
    return (isinstance(metrics, dict) and set(metrics) == set(expected)
            and all(metrics[name].get("unit") == unit
                    for name, unit in expected.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed, see " + os.path.join(build_dir(), "build.log"),
              file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1], expected_metrics(args.trace)):
        sys.stderr.write(proc.stdout)
        print("perfbench: driver exited %d without a result that lists exactly "
              "the BENCHMARK.json metrics" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    # A failed correctness check still prints its result ("correct":
    # false) and exits non-zero.
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
