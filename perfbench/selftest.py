#!/usr/bin/env python3
"""Quick self-test of the repository benchmark.

    python3 perfbench/selftest.py

Builds like run.py, then runs every workload of BENCHMARK.json at
reduced sizes (--quick, a few seconds each) with tracing off and on,
and asserts that each run passes its correctness gate and emits every
metric BENCHMARK.json names, with its unit. Then corrupts one output of
each phase and asserts that the gate fires: a failed operation,
"correct": false, and a non-zero exit.
"""

import json
import os
import subprocess
import sys

import run

ROOT = os.path.dirname(run.HERE)


def quick(binary, env, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds",
           "1", "--trace", str(trace), "--quick", *extra]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    result = run.parse_result(proc.stdout)
    assert result is not None, "%s: no JSON result" % " ".join(cmd)
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bdir = run.build_dir()
    binary = run.build(bdir)
    env = run.driver_env(bdir)

    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            rc, res = quick(binary, env, w["name"], trace)
            where = "%s trace %d" % (w["name"], trace)
            assert rc == 0 and res["correct"], where + ": gate failed"
            assert res["failed"] == 0 and res["attempted"] > 0, where
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, "%s: metrics differ: missing %s, extra %s" % (
                where, sorted(set(want) - set(got)),
                sorted(set(got) - set(want)))
            print("selftest: %s: %d metrics, %d ops ok" %
                  (where, len(got), res["attempted"]))

    for phase in ("engines", "serve", "dse"):
        rc, res = quick(binary, env, bench["workloads"][0]["name"], 0,
                        "--corrupt", phase)
        assert rc != 0 and not res["correct"] and res["failed"] > 0, (
            "corrupted %s output passed the gate" % phase)
        print("selftest: corrupted %s output: gate fired (%d failed)" %
              (phase, res["failed"]))
    print("selftest: ok")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print("selftest: FAIL: %s" % e, file=sys.stderr)
        sys.exit(1)
