#!/usr/bin/env python3
"""Build and run the instant3d benchmark.

    python3 perfbench/run.py --workload serve_full --seed 1 --seconds 15 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Builds perfbench/ (which pulls in the repository's library build) into
.bench_build/perfbench, runs the arithmetic self-test, then runs one
workload with the constants from perfbench/workloads.json. The last
line of stdout is the JSON result: with --trace 0 it holds every
end-to-end metric of BENCHMARK.json, with --trace 1 every per-layer
metric. `--workload all` runs each workload untraced and traced and
ends with one combined result line. Exit status is nonzero when the
build fails, the self-test fails, or any output is wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def nproc():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def build():
    """Configure once, then build incrementally; logs go to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if cfg.returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(nproc(), 8))
    res = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs,
         "--target", "perfbench", "perfbench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr)
    return res.returncode == 0


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload, seed, seconds, trace, constants):
    """Run one workload; returns (exit code, result dict or None)."""
    workdir = ROOT / ".bench_build" / f"work-{workload}-{os.getpid()}"
    cmd = [str(BUILD / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", str(workdir)]
    for name, value in constants.items():
        cmd += ["--param", f"{name}={value}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        log(f"{workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, None
    missing = set(expected_metrics(trace)) ^ set(result["metrics"])
    if missing:
        log(f"{workload}: metrics differ from BENCHMARK.json: "
            f"{sorted(missing)}")
        return 1, None
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    constants = json.loads((HERE / "workloads.json").read_text())
    names = list(constants) if args.workload == "all" else [args.workload]
    if any(n not in constants for n in names):
        log(f"unknown workload {args.workload}; have {sorted(constants)}")
        return 2
    if not build():
        log("build failed")
        return 1
    if subprocess.run([str(BUILD / "perfbench_selftest")],
                      stdout=sys.stderr).returncode != 0:
        log("arithmetic self-test failed")
        return 1

    if args.workload != "all":
        code, result = run_one(args.workload, args.seed, args.seconds,
                               bool(args.trace), constants[args.workload])
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        for trace in (False, True):
            code, result = run_one(name, args.seed, args.seconds, trace,
                                   constants[name])
            worst = worst or code
            if result is None:
                combined["correct"] = False
                continue
            print(f"# {name} trace={int(trace)}: "
                  f"failed/attempted {result['failed']}/"
                  f"{result['attempted']}, correct={result['correct']}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, v in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(combined))
    return worst or (0 if combined["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())
