#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke [--build-dir DIR]

Run from the root of a checkout. The first call configures and builds
.bench_build/perfbench (Release); later calls only check it is up to date.
The last line of standard output is the result JSON of the workload: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The exit code is 0 only when the run's outputs were checked correct. A
traced run leaves its spans in .bench_build/perfbench/traces/.

--smoke runs every workload of BENCHMARK.json at a tiny scale, traced and
untraced, and fails unless each run prints exactly the metric names
BENCHMARK.json lists.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds both programs; exits on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no bayeslsh sources to build")
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(build_dir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "blsh_bench", "blsh_trace", "-j", "4"])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log_path})")


def run_workload(build_dir, workload, seed, seconds, trace, scale=None):
    """Runs one workload; returns (exit code, stdout lines)."""
    program = build_dir / ("blsh_trace" if trace else "blsh_bench")
    workdir = build_dir / "work" / f"{workload}-{os.getpid()}"
    cmd = [str(program), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", str(workdir)]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        spans = workdir / "spans.json"
        if trace and spans.is_file():
            traces = build_dir / "traces"
            traces.mkdir(exist_ok=True)
            shutil.move(str(spans), traces / f"{workload}-seed{seed}.json")
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return done.returncode, done.stdout.splitlines()


def parse_result(lines):
    """The result JSON on the last line, or None."""
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def smoke(build_dir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            code, lines = run_workload(build_dir, workload, 1, 1, trace,
                                       scale=0.1)
            result = parse_result(lines)
            names = sorted(result["metrics"]) if result else None
            want = sorted(expected_metrics(trace))
            status = "ok"
            if code != 0 or result is None or not result["correct"]:
                status = f"failed (exit {code})"
            elif names != want:
                status = (f"metric names differ: missing "
                          f"{sorted(set(want) - set(names))}, extra "
                          f"{sorted(set(names) - set(want))}")
            ok = ok and status == "ok"
            print(f"smoke {workload} trace={int(trace)}: {status}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build-dir", type=Path,
                        default=ROOT / ".bench_build" / "perfbench")
    args = parser.parse_args()

    build(args.build_dir)
    if args.smoke:
        return smoke(args.build_dir)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    code, lines = run_workload(args.build_dir, args.workload, args.seed,
                               args.seconds, bool(args.trace))
    result = parse_result(lines)
    if result is None:
        print("\n".join(lines))
        fail(f"{args.workload} printed no result (exit {code})")
    want = expected_metrics(bool(args.trace))
    if want is not None and sorted(result["metrics"]) != sorted(want):
        print("\n".join(lines[:-1]))
        fail("the metrics printed differ from BENCHMARK.json")
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
