#!/usr/bin/env python3
"""Self-test of the benchmark on its tiny presets; takes under a minute.

    python3 perfbench/selftest.py

For every workload it runs the tiny preset twice untraced and once
traced, through run.py, and checks that:
  - the last line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  - every end-to-end (untraced) or per-layer (traced) metric named in
    BENCHMARK.json is present with its unit, and no other;
  - the run is correct, attempted >= 1 and failed == 0;
  - the two untraced runs print the same digest and identical
    simulated-clock metrics.
Exits 1 on the first failed check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIM_METRICS = ["op_p50_cycles", "op_tail_cycles", "makespan_cycles", "cap_ops_per_sim_s"]


def fail(msg):
    print("selftest: FAIL: " + msg)
    sys.exit(1)


def run(workload, trace, seed=7):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        fail("%s exited %d: %s" % (" ".join(cmd), out.returncode, out.stderr.strip()))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = [line for line in lines if line.startswith("digest: ")]
    return result, digest


def check(workload, result, spec, trace):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
        fail("%s trace=%d: correct=%s attempted=%d failed=%d"
             % (workload, trace, result["correct"], result["attempted"], result["failed"]))
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("%s trace=%d: metrics differ from BENCHMARK.json: missing %s, extra %s, units %s"
             % (workload, trace, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                sorted(k for k in set(want) & set(got) if want[k] != got[k])))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: metric %s is not a number" % (workload, name))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in [wl["name"] for wl in spec["workloads"]]:
        first, digest1 = run(w, 0)
        second, digest2 = run(w, 0)
        traced, _ = run(w, 1)
        check(w, first, spec, 0)
        check(w, second, spec, 0)
        check(w, traced, spec, 1)
        if not digest1 or [d.split("(")[0] for d in digest1] != [d.split("(")[0] for d in digest2]:
            fail("%s: digests differ between runs: %s vs %s" % (w, digest1, digest2))
        for name in SIM_METRICS:
            if first["metrics"][name]["value"] != second["metrics"][name]["value"]:
                fail("%s: simulated metric %s differs between runs" % (w, name))
        print("selftest: %s ok (%s)" % (w, digest1[0].split()[2]))
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
