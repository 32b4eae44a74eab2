#!/usr/bin/env python3
"""Build `imre` and the benchmark from source, then run one benchmark run.

    python3 perfbench/run.py --workload nyt-f32 --seed 1 --seconds 8 --trace 0

The last line of standard output is the run's result as one JSON object.
Build output goes to standard error. Both programs are built into
$CARGO_TARGET_DIR (default `.bench_build` at the repository root).

Repeat mode runs one workload N times with seeds seed, seed+1, ... and
prints each metric's median, quartiles and spread (the distance between
the quartiles as a share of the median); bounds in BENCHMARK.json are set
from its output:

    python3 perfbench/run.py --workload nyt-f32 --seed 1 --seconds 8 --trace 0 --repeat 10
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "imre-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        # Cargo's own output goes to stderr; keep stdout for the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def run_once(target, args, seed, capture):
    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--imre", os.path.join(target, "release", "imre"),
        "--work-dir", work,
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return done


def repeat(target, args):
    results = []
    for i in range(args.repeat):
        seed = args.seed + i
        start = time.monotonic()
        done = run_once(target, args, seed, capture=True)
        took = time.monotonic() - start
        lines = (done.stdout or "").strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"perfbench: run with seed {seed} failed")
        result = json.loads(lines[-1])
        print(f"seed {seed} ({took:.1f} s): {lines[-1]}", file=sys.stderr)
        results.append(result)
    summary = {"workload": args.workload, "runs": len(results),
               "all_correct": all(r["correct"] for r in results),
               "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
               "metrics": {}}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "unit": first["unit"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None,
        }
        print(f"{name:<40} median {med:12.5g} {first['unit']:<6} "
              f"q1 {q1:12.5g} q3 {q3:12.5g} spread {summary['metrics'][name]['spread']}")
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["nyt-f32", "nyt-int8-knn", "smoke-live"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times with consecutive seeds and summarise")
    args = parser.parse_args()
    target = target_dir()
    build(target)
    if args.repeat > 0:
        repeat(target, args)
        return
    sys.exit(run_once(target, args, args.seed, capture=False).returncode)


if __name__ == "__main__":
    main()
