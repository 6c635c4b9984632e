#!/usr/bin/env python3
"""Build and run the DART benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ingest_keywrite --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 10

With --workload, runs one workload in one process and prints a table of
every metric by name and unit, then, as the last line, one JSON object
with "correct", "attempted", "failed" and "metrics". The metrics are the
"end_to_end" list of BENCHMARK.json with --trace 0 and the "per_layer"
list with --trace 1.

With --all, runs every workload of BENCHMARK.json, end to end and traced,
each in its own process, prints every table, and exits non-zero if any
check failed.

The Rust program is built with cargo from perfbench/Cargo.toml into
$CARGO_TARGET_DIR (perfbench/target when unset).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170

# A fixed mmap threshold stops glibc from moving it after each large
# free. Without it, the heap layout left by one simulator lifetime
# decides where the next one's buffers land, and the peak resident set
# wanders by 10% from run to run.
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the benchmark binary; return its path."""
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False)
    if result.returncode != 0:
        fail("building the benchmark failed")
    binary = target / "release" / "dta-perfbench"
    if not binary.is_file():
        fail(f"no benchmark binary at {binary}")
    return binary


def run_one(binary, spec, workload, seed, seconds, trace):
    """Run one workload in its own process; return (table lines, result)."""
    try:
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, env={**os.environ, **CHILD_ENV}, stdout=subprocess.PIPE,
            text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    # BENCHMARK.json decides which metrics a run reports; the program
    # must measure every one of them, with the declared unit.
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None:
            fail(f"{workload} did not report {metric['name']}")
        if got["unit"] != metric["unit"]:
            fail(f"{metric['name']} is in {got['unit']}, BENCHMARK.json says {metric['unit']}")
        metrics[metric["name"]] = got
    result["metrics"] = metrics
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload")
    target.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (BENCHMARK.json lists {', '.join(names)})")

    binary = build()
    if args.workload is not None:
        table, result = run_one(binary, spec, args.workload, args.seed, seconds, args.trace)
        print("\n".join(table))
        print(json.dumps(result))
        return 0

    all_correct = True
    for name in names:
        for trace in (0, 1):
            table, result = run_one(binary, spec, name, args.seed, seconds, trace)
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {name}: {kind}, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}")
            print("\n".join(table))
            all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
