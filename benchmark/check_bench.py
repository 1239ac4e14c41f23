#!/usr/bin/env python3
"""Smoke and determinism checks for stratabench (run through ctest).

  check_bench.py smoke BINARY BENCHMARK_JSON WORKLOAD
      --smoke (scale 2, one pass), untraced and traced: every metric that
      BENCHMARK.json names is printed with its unit, the closing JSON line
      holds exactly the right metric set, no cell failed, and the trace
      has spans for every layer the workload runs.
  check_bench.py determinism BINARY WORKLOAD...
      Two runs with the same seed give identical modeled metrics, counts
      and modeled_digest.
  check_bench.py seeds BINARY WORKLOAD...
      Seeds 1 and 2 give different cell orders and different inputs.
"""

import json
import os
import subprocess
import sys

from compare import is_modeled


def run(binary, *args):
    """Runs stratabench; returns ({name: (value, unit)}, closing JSON)."""
    proc = subprocess.run([binary, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(args)} exited {proc.returncode}\n"
                 f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        name, value, unit = line.split(" ")
        printed[name] = (value, unit)
    return printed, result


def check(cond, what):
    if not cond:
        sys.exit(f"FAIL: {what}")


def smoke(binary, spec_path, workload):
    with open(spec_path) as f:
        spec = json.load(f)
    trace_path = f"smoke-{workload}.chrome.json"
    for listing, extra in (("end_to_end", []),
                           ("per_layer", ["--traced", trace_path])):
        printed, result = run(binary, "--workload", workload, "--seed", "1",
                              "--smoke", *extra)
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] >= 1,
              f"{workload} {listing}: {result}")
        want = {m["name"]: m["unit"] for m in spec[listing]}
        check(set(result["metrics"]) == set(want),
              f"{workload} {listing}: JSON metrics "
              f"{sorted(set(result['metrics']) ^ set(want))} mismatch")
        for name, unit in want.items():
            check(name in printed and printed[name][1] == unit,
                  f"{workload}: {name} not printed with unit {unit}")
            check(result["metrics"][name]["unit"] == unit,
                  f"{workload}: {name} JSON unit")
    with open(trace_path) as f:
        trace = json.load(f)
    layers = {e["cat"] for e in trace["traceEvents"]}
    want_layers = ["workloads", "vm", "core", "exec"]
    if workload == "observed":
        want_layers += ["trace", "plugin"]
    for layer in want_layers:
        check(layer in layers, f"{workload}: no {layer} span in the trace")
    os.remove(trace_path)
    print(f"ok: {workload} smoke")


def modeled(printed):
    return {k: v for k, v in printed.items() if is_modeled(k, v[1])}


def determinism(binary, workloads):
    for w in workloads:
        args = ("--workload", w, "--seed", "1", "--smoke")
        first, _ = run(binary, *args)
        second, _ = run(binary, *args)
        a, b = modeled(first), modeled(second)
        check("modeled_digest" in a and "modeled_slowdown" in a,
              f"{w}: digest or slowdown missing")
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        check(not diff, f"{w}: same seed, different {diff}")
        print(f"ok: {w} deterministic ({len(a)} modeled values)")


def seeds(binary, workloads):
    for w in workloads:
        one, _ = run(binary, "--workload", w, "--seed", "1", "--smoke")
        two, _ = run(binary, "--workload", w, "--seed", "2", "--smoke")
        for key in ("bench.order_digest", "bench.input_digest"):
            check(one[key] != two[key], f"{w}: seeds 1 and 2 share {key}")
        print(f"ok: {w} seeds 1 and 2 differ in cell order and inputs")


def main(argv):
    if len(argv) < 3:
        sys.exit(__doc__)
    mode, binary = argv[1], argv[2]
    if mode == "smoke" and len(argv) == 5:
        smoke(binary, argv[3], argv[4])
    elif mode == "determinism":
        determinism(binary, argv[3:])
    elif mode == "seeds":
        seeds(binary, argv[3:])
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv)
