#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload train|serve-net|serve-pipeline \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the perfbench program (and the
aibench libraries it links, from ./src) into .bench_build/perfbench,
runs one measurement and prints its report; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
with --trace 1 the per_layer list. A per-layer metric of a layer the
workload does not exercise (say net.rtt_p50_ms under train) is
reported as 0: that layer did no such work in the run. The traced run
also writes its span log to .bench_build/traces/.

Exit status: 0 when every correctness check passed, 1 when one failed
(the JSON line is still printed), 2 on any other error (no JSON line).
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("train", "serve-net", "serve-pipeline")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; output to a log file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no aibench sources (src/CMakeLists.txt) in this checkout")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                fail(f"build failed ({' '.join(cmd)}):\n{tail}")
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    expected = expected_metrics(args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with status {proc.returncode}")

    result = json.loads(lines[-1])
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(expected))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    idle = [n for n in expected if n not in metrics]
    if idle and not args.trace:
        fail(f"end-to-end metrics missing: {idle}")
    for name, unit in expected.items():
        if name in idle:
            metrics[name] = {"value": 0, "unit": unit}
        elif metrics[name]["unit"] != unit:
            fail(f"{name}: unit {metrics[name]['unit']} != {unit}")
    for line in lines[:-1]:
        print(line)
    if idle:
        print(f"layers idle in {args.workload}, reported as 0: {', '.join(idle)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {n: metrics[n] for n in expected}}))
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
