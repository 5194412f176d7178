#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload dm_vqe --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the library from src/) into
.bench_build/, gives the workload its thread budget, runs it with a
working directory under .bench_work/, forwards its report lines and
prints, as the last line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports every end_to_end
metric of BENCHMARK.json, --trace 1 every per_layer metric (a layer the
workload does not touch reports 0). Exits non-zero when the build
fails, the workload fails, or an output check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

DEFAULT_SEED = 1
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def thread_budget():
    """CPUs this process may use: affinity, capped by a cgroup quota."""
    budget = len(os.sched_getaffinity(0))
    try:
        with open("/sys/fs/cgroup/cpu.max") as f:
            quota, period = f.read().split()
        if quota != "max":
            budget = min(budget, max(1, math.ceil(int(quota) / int(period))))
    except (OSError, ValueError):
        pass
    return budget


def build(bench_dir):
    jobs = str(max(1, min(4, thread_budget())))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", bench_dir, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    seconds = args.seconds if args.seconds else spec["run_seconds"]

    binary = build(bench_dir)

    # Threads stay within the budget: dm_vqe runs one cell at a time
    # with every thread in OpenMP; tableau_sweep splits the budget
    # between two cell workers; daemon_mix leaves two threads to its
    # clients and splits the rest between two daemon workers.
    budget = thread_budget()
    omp = {"dm_vqe": budget,
           "tableau_sweep": budget // 2,
           "daemon_mix": (budget - 2) // 2}.get(args.workload, 1)
    omp = max(1, omp)
    env = dict(os.environ, OMP_NUM_THREADS=str(omp))
    workdir = os.path.join(WORK_DIR, "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--threads", str(budget), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])["report"]
    except (IndexError, ValueError, KeyError):
        print(proc.stdout, end="")
        fail("workload exited %d without a report" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None:
            if not args.trace:
                fail("workload did not report " + m["name"])
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("%s reported in %s, declared in %s"
                 % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    correct = proc.returncode == 0 and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
