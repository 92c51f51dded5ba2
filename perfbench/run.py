#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark executable is built with
dune in the release profile into _perfbench_build/ (the shared dune
cache is off, so nothing is written outside the checkout); its store
workload keeps its log files under _perfbench_data/ and removes them.

A run is PROCESSES fresh processes of the executable, one after the
other, each given an equal share of --seconds and the same other
arguments. How fast a process runs on the shared VM this was built on
depends on the process: back-to-back processes with the same seed read
from ~130k to ~205k deliveries/s on tcp-small, for their whole life,
while a loop on the other vCPU kept its speed. So each timing is the
best process's, and every other metric is the median over processes;
operation counts are summed, and the run is correct only if every
process was. Each process's comment lines are passed through; build
output goes to standard error, so the last line of standard output is
the run's result line. The exit status is 0 only if every process
exited 0 and printed a result.
"""

import json
import os
import statistics
import subprocess
import sys

BUILD_DIR = "_perfbench_build"
DATA_DIR = "_perfbench_data"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
PROCESSES = 5

# Timings taken as the best process's; every other metric is the median.
HIGHER_BEST = {"events_per_s", "append_per_s", "recover_mb_per_s"}
LOWER_BEST = {"cpu_us_per_event", "latency_p50_us"}


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        print("perfbench: %s is not the repository root (no dune-project)" % root,
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/perfbench.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 2
    os.makedirs(os.path.join(root, DATA_DIR), exist_ok=True)
    argv = share_seconds(argv)
    results = []
    status = 0
    for _ in range(PROCESSES):
        run = subprocess.run([os.path.join(root, EXE)] + argv + ["--data-dir", DATA_DIR],
                             cwd=root, stdout=subprocess.PIPE, text=True,
                             preexec_fn=pin_to_one_cpu)
        lines = run.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            results.append(json.loads(lines[-1]))
        except (IndexError, ValueError):
            print("perfbench: a process printed no result (exit %d)" % run.returncode,
                  file=sys.stderr)
            return run.returncode or 2
        if run.returncode != 0:
            status = run.returncode
    print(json.dumps(combine(results)))
    return status


def share_seconds(argv):
    # --seconds S becomes S / PROCESSES; a bad value is left for the
    # executable to reject.
    argv = list(argv)
    for i, arg in enumerate(argv[:-1]):
        if arg == "--seconds":
            try:
                argv[i + 1] = repr(float(argv[i + 1]) / PROCESSES)
            except ValueError:
                pass
    return argv


def combine(results):
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name in HIGHER_BEST:
            value = max(values)
        elif name in LOWER_BEST:
            value = min(values)
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def pin_to_one_cpu():
    # Every measured phase is single-threaded; keeping it on one CPU
    # stops the scheduler from moving it between vCPUs whose speed
    # differs (on the 2-vCPU VM this was built on, by up to 20%).
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {max(cpus)})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
