#!/usr/bin/env python3
"""The repository benchmark: builds the driver and runs workloads.

Run from the repository root:

    python3 perfbench/run.py --workload maintain-sync --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload in BENCHMARK.json

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
end-to-end metrics of BENCHMARK.json, with `--trace 1` the per-layer ones.
The full result (every metric plus run details) is also written to
.bench_build/perfbench-results/ for perfbench/report.py.

The driver is built from source into .bench_build/perfbench (CMake,
Release); cluster data lives under .bench_build/perfbench-data while a run
lasts. The exit code is non-zero when a run fails its correctness gate or
cannot run at all.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(REPO_ROOT, ".bench_build")
BUILD_DIR = os.path.join(WORK_DIR, "perfbench")
DATA_DIR = os.path.join(WORK_DIR, "perfbench-data")
RESULTS_DIR = os.path.join(WORK_DIR, "perfbench-results")
BINARY = os.path.join(BUILD_DIR, "perfbench_driver")

# A run must end within 180 s of the build finishing (a no-op after the
# first run in a checkout); keep a margin for start-up and clean-up.
RUN_BUDGET_S = 165
BUILD_TIMEOUT_S = 840


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(targets=("perfbench_driver",)):
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.isfile(os.path.join(REPO_ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_driver(workload, seed, seconds, trace, deadline):
    """Runs one workload; returns (full result dict, report text)."""
    shutil.rmtree(DATA_DIR, ignore_errors=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--data-dir", DATA_DIR]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left to run " + workload)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{workload}: driver did not finish in {timeout:.0f}s")
    finally:
        shutil.rmtree(DATA_DIR, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        raise BenchError(f"{workload}: driver exited {proc.returncode} "
                         "without a result")
    return result, "\n".join(lines[:-1])


def contract_line(result, spec, trace):
    """The result restricted to the metrics BENCHMARK.json names."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise BenchError(f"driver did not report {metric['name']} "
                             f"in {metric['unit']}")
        metrics[metric["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def save(result, workload, seed, trace):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = f"{workload}.seed{seed}.trace{trace}.json"
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; default: all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(
                f"unknown workload {args.workload}; one of {names}")
        seconds = args.seconds or spec["run_seconds"]
        build()
        workloads = [args.workload] if args.workload else names
        all_correct = True
        for workload in workloads:
            deadline = time.monotonic() + RUN_BUDGET_S
            result, report = run_driver(workload, args.seed, seconds,
                                        args.trace, deadline)
            path = save(result, workload, args.seed, args.trace)
            print(report)
            print(f"full result: {os.path.relpath(path, REPO_ROOT)}")
            all_correct = all_correct and result["correct"]
            line = contract_line(result, spec, args.trace)
            if not result["correct"]:
                print(f"{workload}: CORRECTNESS CHECK FAILED: "
                      f"{result['info'].get('verify.first_mismatch', '')}",
                      file=sys.stderr)
            print(json.dumps(line), flush=True)
        return 0 if all_correct else 1
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
