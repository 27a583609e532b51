#!/usr/bin/env python3
"""Build the benchmark harness from this checkout and run one workload.

    python3 perfbench/run.py --workload nas --seed 1 --seconds 20 --trace 0

Builds perfbench/ (and through it the simulator in src/) as a Release
build under $CARGO_TARGET_DIR (default .bench_build), runs the harness's
self-test, then runs the workload pinned to one core. The harness's output
is passed through; its last line is the JSON result. That line's metric
names and units are checked against BENCHMARK.json (end_to_end for
--trace 0, per_layer for --trace 1). Exits non-zero, without a result
line, when the build, the self-test, the run or that check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/) next to perfbench/")
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"] + gen,
                ["cmake", "--build", out, "-j", jobs]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_harness")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]}

    out = build_dir()
    harness = build(out)
    if subprocess.run([harness, "--self-test"], stdout=sys.stderr).returncode:
        fail("harness self-test failed")

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            out, f"spans-{args.workload}-{args.seed}.json")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        sys.stderr.write(r.stdout)
        fail(f"no result line (harness exit code {r.returncode})")
    if got != want:
        sys.stderr.write(r.stdout)
        fail("metrics differ from BENCHMARK.json: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in want if k in got and got[k] != want[k])}")
    sys.stdout.write(r.stdout)
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
