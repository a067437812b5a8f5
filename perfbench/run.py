#!/usr/bin/env python3
"""Build and run the serving benchmark.

From the root of a checkout:

  python3 perfbench/run.py --workload batch|point|stream --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --smoke

The first form builds perfbench_serving (CMake, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and passes its output through: the last stdout line is the JSON
result. Spans, provenance and a copy of the metrics go to
$CARGO_TARGET_DIR/perfbench-out. The second form is the smoke check: every
workload with tiny loads, traced and untraced, asserting that every metric
named in BENCHMARK.json is printed with its unit and that the correctness
check passes.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def target_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(base)


def build():
    """Configures once, then builds; returns the binary path or None."""
    bdir = os.path.join(target_dir(), "perfbench")
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_serving",
                  "-j", "4"])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return os.path.join(bdir, "perfbench_serving")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def run(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout text)."""
    out_dir = os.path.join(target_dir(), "perfbench-out")
    cmd = [binary] + args + ["--out-dir", out_dir, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4, ""
    return proc.returncode, proc.stdout


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for wl in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{wl['name']} trace={trace}"
            code, out = run(binary, ["--workload", wl["name"], "--seed", "1",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--smoke"])
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{label}: correctness check failed")
            metrics = result["metrics"]
            wanted = {m["name"]: m for m in spec[group]}
            for name, m in wanted.items():
                got = metrics.get(name)
                if got is None:
                    problems.append(f"{label}: missing {name}")
                elif got.get("unit") != m["unit"]:
                    problems.append(f"{label}: {name} unit {got.get('unit')}"
                                    f" != {m['unit']}")
                elif not math.isfinite(got["value"]) or \
                        (group == "end_to_end" and got["value"] == 0):
                    problems.append(f"{label}: {name} = {got['value']}")
            for name in metrics:
                if name not in wanted:
                    problems.append(f"{label}: unlisted metric {name}")
            print(f"smoke {label}: {len(metrics)} metrics", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"), file=sys.stderr)
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed")
    ap.add_argument("--seconds")
    ap.add_argument("--trace")
    ap.add_argument("--smoke", action="store_true")
    a = ap.parse_args()
    if not a.smoke and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    binary = build()
    if binary is None:
        return 2
    if a.smoke:
        return smoke(binary)
    code, out = run(binary, ["--workload", a.workload, "--seed", a.seed,
                             "--seconds", a.seconds, "--trace", a.trace])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
