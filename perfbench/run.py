#!/usr/bin/env python3
"""Builds and runs the gistcr benchmark (workloads and metrics: BENCHMARK.json).

    python3 perfbench/run.py --workload btree_read_mostly --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The engine is compiled from ../src into
$CARGO_TARGET_DIR (default .bench_build) as a Release build with fault
injection off. The last stdout line is one JSON object: correct, attempted,
failed and metrics -- every end_to_end metric with --trace 0, every per_layer
metric with --trace 1. A wrong output, an unexpected error status or a
missing metric exits non-zero.
"""

import argparse
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else pathlib.Path.cwd() / d


def build():
    """Configures once, then builds incrementally; output goes to stderr."""
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4"],
                   stdout=sys.stderr, check=True)
    return bdir / "gistcr_perfbench"


def run_workload(exe, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, parsed RESULT or None)."""
    bdir = build_dir()
    run_dir = bdir / "runs" / f"{workload}-{os.getpid()}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--dir", str(run_dir),
           "--trace-out", str(bdir / f"spans-{workload}-{seed}.jsonl"),
           *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    return proc.returncode, result


def select(result, names):
    """The metrics named in BENCHMARK.json, checked for presence and unit."""
    out = {}
    for m in names:
        got = result["metrics"].get(m["name"])
        if got is None:
            raise SystemExit(f"metric {m['name']} was not printed")
        if got["unit"] != m["unit"]:
            raise SystemExit(f"metric {m['name']} printed in {got['unit']}, "
                             f"BENCHMARK.json says {m['unit']}")
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            raise SystemExit(f"metric {m['name']} is not a finite number")
        out[m["name"]] = got
    return out


def measure(spec, args):
    exe = build()
    rc, result = run_workload(exe, args.workload, args.seed, args.seconds,
                            args.trace)
    if rc != 0 or result is None:
        print(f"run failed (exit {rc})", file=sys.stderr)
        return rc or 1
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": select(result, names)}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def self_test(spec):
    """Tiny-scale runs: every named metric is printed with its unit, and the
    verifier rejects an acknowledged set holding a key never inserted."""
    exe = build()
    tiny = ["--scale", "0.05"]
    for w in spec["workloads"]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, result = run_workload(exe, w["name"], 1, 1, trace, tiny)
            if rc != 0 or result is None:
                print(f"self-test: {w['name']} trace={trace} failed",
                      file=sys.stderr)
                return 1
            select(result, names)
        rc, result = run_workload(exe, w["name"], 2, 1, 0,
                                tiny + ["--phantom-ack"])
        if rc == 0 or result is not None:
            print(f"self-test: {w['name']}: verifier accepted a key that "
                  "was never inserted", file=sys.stderr)
            return 1
    print("self-test: OK")
    return 0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    try:
        return self_test(spec) if args.self_test else measure(spec, args)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
