#!/usr/bin/env python3
"""Run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload fp32 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds perfbench/ (the library sources
plus the driver) into $CARGO_TARGET_DIR, default .bench_build, then
runs one measurement and relays the driver's stdout; its last line is
the JSON result. Build output goes to <build dir>/build.log, and every
result is also kept under <build dir>/results/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fp32", "int8")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           ".bench_build")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(bdir):
    """Configure once and build the driver; returns its path."""
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "flcnn_perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-20:]))
                fail("build failed (%s)" % " ".join(cmd[:2]))
    return os.path.join(bdir, "flcnn_perfbench")


def driver_env(bdir):
    """Pin what changes numbers without changing code: a private, empty
    tune cache (so ~/.flcnn_tune.json cannot change solver choice) and
    no FLCNN_THREADS override."""
    cache = os.path.join(bdir, "tune_cache.json")
    with open(cache, "w") as f:
        f.write('{"schema": "flcnn-tune-v1", "machines": {}}\n')
    env = dict(os.environ)
    env["FLCNN_TUNE_CACHE"] = cache
    env.pop("FLCNN_THREADS", None)
    return env


def parse_result(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    binary = build(bdir)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(bdir, "traces", tag + ".json")]
    try:
        proc = subprocess.run(cmd, env=driver_env(bdir),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    result = parse_result(proc.stdout)
    if result is None:
        fail("driver exited %d without a result" % proc.returncode)
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    with open(os.path.join(bdir, "results", tag + ".txt"), "w") as f:
        f.write(proc.stdout)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
