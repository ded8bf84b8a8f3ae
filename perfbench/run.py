#!/usr/bin/env python3
"""Runs the repository benchmark.

Builds perfbench/ together with the library sources under src/ into
.bench_build/ (first run only; later runs just check the build is current),
runs one workload in a fresh process and prints its lines. The last line is
the result object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload search_anneal [--seed 21]
      [--seconds 40] [--trace 0|1]
  python3 perfbench/run.py --workload all    # BENCHMARK.json's workloads,
                                             # default seeds

--trace 0 reports the end-to-end metrics; --trace 1 repeats the run, then
replays it one layer lower with spans and reports the per-layer metrics:
BENCHMARK.json's on the result line, those that exist on one workload only
on a layer_report line, and each on a line of its own with the workload and
end-to-end metric it should move (perfbench/manifest.json). Every run
appends its result and host-noise record (CPU steal share, load average)
to .bench_build/runs.jsonl.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170
TIME_UNITS = ("s", "us", "us/op")


def load(name):
    with open(os.path.join(HERE, name)) as f:
        return json.load(f)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD])
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                sys.exit("perfbench: build failed: " + " ".join(step))


def run_one(workload, seed, seconds, trace):
    """Runs the binary once; returns (lines, exit code)."""
    try:
        done = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--out-dir", os.path.relpath(BUILD, ROOT)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return [], 1
    return done.stdout.strip().splitlines(), done.returncode


def layer_map_lines(workload, metrics, unused, manifest):
    """One line per per-layer metric: value, unit and what it should move."""
    layers = manifest["per_layer"]
    lines = []
    for name, m in metrics.items():
        spec = layers.get(name, {})
        moves = "; ".join(
            f"{t['metric']} on {t['workload']}"
            for t in spec.get("moves", [])) or "-"
        still = ", ".join(spec.get("no_move", [])) or "-"
        value = f"{m['value']:.6g} {m['unit']}"
        if name in unused:
            value += " (layer not called on this workload)"
        lines.append(f"# {workload} {name} = {value} | moves: {moves} "
                     f"| no move: {still}")
    return lines


def split_metrics(measured, specs):
    """Picks the result line's metrics (BENCHMARK.json's list, in its order)
    out of everything the binary measured; returns (line, rest, unused). A
    per-layer count of a layer this workload never calls reads 0 and is
    listed in `unused`; a missing time or end-to-end metric is a benchmark
    bug."""
    rest = dict(measured)
    line = {}
    unused = set()
    for spec in specs:
        name = spec["name"]
        if name in rest:
            line[name] = rest.pop(name)
        elif "bound" not in spec and spec["unit"] not in TIME_UNITS:
            line[name] = {"value": 0, "unit": spec["unit"]}
            unused.add(name)
        else:
            sys.exit(f"perfbench: the run did not measure {name}")
    return line, rest, unused


def main():
    bench = load("../BENCHMARK.json")
    manifest = load("manifest.json")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(manifest["workloads"]) + ["all"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    if args.workload == "all":
        workloads = [w["name"] for w in bench["workloads"]]
    else:
        workloads = [args.workload]
    specs = bench["per_layer" if args.trace else "end_to_end"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        seed = args.seed
        if seed is None or args.workload == "all":
            seed = manifest["workloads"][workload]["default_seed"]
        lines, code = run_one(workload, seed, args.seconds, args.trace)
        if code != 0 or len(lines) < 2:
            sys.exit(f"perfbench: {workload} failed (exit {code})")
        host = json.loads(lines[0])["host"]
        result = json.loads(lines[-1])
        result["metrics"], rest, unused = split_metrics(result["metrics"],
                                                        specs)
        print(lines[0])
        if args.trace:
            print(json.dumps({"layer_report": rest}))
            for line in layer_map_lines(
                    workload, {**result["metrics"], **rest}, unused, manifest):
                print(line)
        with open(os.path.join(BUILD, "runs.jsonl"), "a") as log:
            log.write(json.dumps({"workload": workload, "seed": seed,
                                  "trace": args.trace, "host": host,
                                  "result": result}) + "\n")
        if len(workloads) == 1:
            print(json.dumps(result))
            return
        print(f"# {workload}: " + json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
