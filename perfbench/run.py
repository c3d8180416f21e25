#!/usr/bin/env python3
"""Repository benchmark: build it from source, run one workload.

    python3 perfbench/run.py --workload human_oneshot --seed 1 --seconds 30 --trace 0

Run from the repository root. Workloads and metrics are declared in
BENCHMARK.json. The benchmark program is built with CMake into .bench_build/perfbench
(always an optimized build of ../src). With --trace 1 the Chrome
trace-event file of the last traced assembly lands in .bench_build/traces.

Seeds: 1 is the baseline seed; 7919 is held out for confirming a claim
made against seed 1. Any other seed gives a different, reproducible input.

The last stdout line is the result object
{"correct": ..., "attempted": N, "failed": N, "metrics": {...}}; the lines
before it hold the per-sample detail and a host/build stamp. With
--workload all it runs every workload in turn, prints each metric by name
and unit per workload, and ends with one object keyed by workload.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
OK_BUILD_TYPES = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170
WORKLOADS = ["human_oneshot", "wheat_oneshot", "served_mix"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", here, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def cmake_cache():
    values = {}
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
                if m:
                    values[m.group(1)] = m.group(2)
    except OSError:
        pass
    return values


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def source_revision():
    """Commit when run inside a git checkout, else a digest of the sources."""
    try:
        if not os.path.isdir(".git"):
            raise OSError("not a git checkout")
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for root in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build_is_benchmarkable(cache):
    flags = " ".join(v for k, v in cache.items() if k.startswith("CMAKE_CXX_FLAGS"))
    if cache.get("CMAKE_BUILD_TYPE") not in OK_BUILD_TYPES:
        return f"build type {cache.get('CMAKE_BUILD_TYPE')!r}"
    if "-fsanitize" in flags or cache.get("HIPMER_SANITIZE"):
        return "sanitizer build"
    if cache.get("HIPMER_CHECKED", "OFF").upper() in ("ON", "1", "TRUE"):
        return "HIPMER_CHECKED build"
    return None


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return None
    key = "per_layer" if trace else "end_to_end"
    return {m["name"] for m in spec.get(key, [])}


def run_workload(workload, seed, seconds, trace, cache):
    """Run the benchmark program once; print its detail lines and stamp, return the
    result object (None when the run produced none)."""
    cmd = [PROGRAM, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(os.path.join(".bench_build", "traces"), exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            ".bench_build", "traces", f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except ValueError:
        result = None
    if result is None:
        sys.stdout.write(proc.stdout)
        log(f"benchmark program exited with {proc.returncode} and no result line")
        return None
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        sys.stdout.write(proc.stdout)
        log(f"metric set differs from BENCHMARK.json: "
            f"missing {sorted(want - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - want)}")
        return None
    for line in lines[:-1]:
        print(line)
    stamp = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": cache.get("CMAKE_CXX_COMPILER", "?"),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "commit": source_revision(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not build():
        return 1
    cache = cmake_cache()
    refusal = build_is_benchmarkable(cache)
    if refusal:
        log(f"refusing to report from a {refusal}: its timings measure a "
            "different program")
        return 1

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, cache)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0

    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        result = run_workload(workload, args.seed, args.seconds, args.trace,
                              cache)
        if result is None:
            return 1
        results[workload] = result
    for workload, result in results.items():
        print(f"== {workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for name, m in sorted(result["metrics"].items()):
            print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
