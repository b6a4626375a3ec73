#!/usr/bin/env python3
"""DPFS end-to-end benchmark; perfbench/README.md describes it.

    python3 perfbench/run.py --workload fig11_collective --seed 1 --seconds 30 --trace 0

Builds perfbench/driver.cpp against the DPFS sources of this checkout with
CMake (into .bench_build/perfbench), runs one workload in a scratch
directory under .bench_build, checks the result against BENCHMARK.json and
prints it as the last line of standard output: one JSON object with the
keys correct, attempted, failed and metrics. Build output and progress go
to standard error. Exits non-zero, printing no result, when the sources are
missing or the build or the run fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
# Five set-ups, one second of warm-up, the window and the final read-back
# stay well inside this.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no DPFS sources at {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR)]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target", "dpfs_perfbench",
                    "--parallel", jobs], check=True, stdout=sys.stderr)
    return BUILD_DIR / "dpfs_perfbench"


def check(result, spec, trace):
    """Raises ValueError unless `result` has exactly the promised shape."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError(f"{key} is not a whole number")
    if result["attempted"] < 1:
        raise ValueError("nothing was attempted")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise ValueError(f"metrics {sorted(metrics)}, expected {sorted(units)}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if (set(metric) != {"value", "unit"} or metric["unit"] != units[name]
                or not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(f"metric {name}: {metric}")


def main():
    parser = argparse.ArgumentParser(description="DPFS end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    # DPFS_* variables (engine overrides, failpoints) would change what is
    # measured, so dpfs_perfbench runs without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPFS_")}
    env["TMPDIR"] = str(workdir)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"driver exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
        if not isinstance(result, dict):
            raise ValueError("no JSON object on the last line")
        check(result, spec, args.trace)
    except ValueError as error:
        fail(f"unexpected driver output: {error}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
