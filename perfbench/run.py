#!/usr/bin/env python3
"""One command for the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library, the `boltondp` CLI and
the benchmark binaries from this checkout into .bench_build/perfbench
(CMake, RelWithDebInfo), runs the benchmark's unit tests, then runs one
workload. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer metrics of BENCHMARK.json.
A failed correctness gate exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = {
    "train_serial_large": "pb_train",
    "train_sharded_large": "pb_train",
    "serve_mixed_open": "pb_serve",
}
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources (src/) next to perfbench/; run from a full checkout")
        sys.exit(2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    unit = os.path.join(BUILD, "pb_unit_test")
    if os.path.isfile(unit):
        subprocess.run([unit, "--gtest_brief=1"], stdout=sys.stderr, check=True)
    # Flush the build's writes now, so their writeback does not slow the
    # serve workload's fsyncs.
    os.sync()


def run_workload(args, work_dir):
    cmd = [os.path.join(BUILD, WORKLOADS[args.workload]),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    if args.workload == "serve_mixed_open":
        cmd += ["--boltondp", os.path.join(BUILD, "boltondp")]
    # Own process group, so a daemon the workload spawned cannot outlive it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} exceeded {RUN_TIMEOUT_S}s")
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, out


def check_result(line, trace):
    """The result line must carry exactly the metrics BENCHMARK.json names
    for this mode (end_to_end or per_layer), each with its unit."""
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys")
    if not result["correct"] or result["attempted"] < 1:
        raise ValueError("result not correct")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(got.items()) ^ set(want.items()))}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    build()
    work_dir = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        code, out = run_workload(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stderr.write(out)
        log(f"{args.workload} failed (exit {code})")
        sys.exit(1)
    try:
        check_result(lines[-1], args.trace)
    except (OSError, ValueError, KeyError, TypeError) as err:
        sys.stderr.write(out)
        log(f"{args.workload} printed no valid result: {err}")
        sys.exit(1)
    print("\n".join(lines[:-1]))
    log(f"{args.workload} done in {time.monotonic() - started:.1f}s")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
