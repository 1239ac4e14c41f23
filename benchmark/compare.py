#!/usr/bin/env python3
"""Parent-vs-change comparison of stratabench runs.

  compare.py --base B1.json B2.json ...
      Summarizes one set: per metric and workload, the median, quartiles
      and spread (quartile distance over median) against the bound. The
      benchmark counts as steady when every spread is below a third of its
      bound.

  compare.py --base B1.json B2.json ... --change C1.json C2.json ...
      Compares two sets of run.sh suite JSONs, one file per run. The sets
      must have the same length, and the files at one position form a pair,
      run with one seed.

  compare.py --run PARENT_CHECKOUT CHANGE_CHECKOUT [--pairs 10] [--seed 1]
             [--out DIR]
      Runs benchmark/run.sh alternately in the two checkouts (the parent
      first in even pairs, the change first in odd ones), for run_seconds
      from BENCHMARK.json, keeps every JSON under DIR, then compares them
      as above.

For each end-to-end metric in BENCHMARK.json, one row per workload: each
side's median and quartiles, the change's win fraction over the pairs,
and a verdict against the metric's bound:

  improved    at least MIN_PAIRS pairs, the change wins at least 9 of 10
              of them (ties count for neither), and the medians differ by
              more than the parent's spread (the distance between its
              quartiles);
  unresolved  the parent's spread is wider than the bound, and not every
              change run reads better than every parent run; or the rule
              for improved holds on fewer than MIN_PAIRS pairs;
  regressed   the change's median is worse by more than the bound;
  no-worse    otherwise.

A modeled metric (simulated, so it repeats exactly for a seed) is compared
exactly, pair by pair: regressed when any pair reads worse, improved when
at least MIN_PAIRS pairs were run and the change wins 9 of 10 of them
with none worse, no-worse otherwise. BENCHMARK.json gives it a bound
above 0 only because the benchmark's own acceptance takes its spread over
ten different seeds, which move it.

It also reports, for each seed, whether every modeled value, every count
and modeled_digest are identical on both sides, and each side's share of
failed cells. A modeled difference is reported but does not by itself set
the exit status: a change to a mechanism may move modeled values on
purpose. Exit status 1 when a metric regressed or a cell failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")
MIN_PAIRS = 10

# Units of host-time, host-rate and host-memory values.
HOST_UNITS = {"s", "ms", "us", "ns", "Minstr/s", "MiB", "%"}


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def is_modeled(name, unit):
    """True for a value that must repeat exactly for one seed: simulated
    results and counts, as opposed to host measurements and the run's own
    bookkeeping (how many passes fitted in the time)."""
    return (unit not in HOST_UNITS and name != "plugin.observe_overhead"
            and name not in ("bench.passes", "cells_attempted"))


def load_set(paths):
    """({workload: {"metrics": {name: [values]}, "modeled": {seed: set},
    "attempted": n, "failed": n}}, [seed of each file]) over the suite
    JSONs in order. Each "modeled" entry holds one frozen set of
    (name, value) pairs per distinct outcome: the digest plus every
    modeled value."""
    out, seeds = {}, []
    for path in paths:
        with open(path) as f:
            suite = json.load(f)
        seeds.append(suite["seed"])
        for name, report in suite["workloads"].items():
            w = out.setdefault(name, {"metrics": {}, "modeled": {},
                                      "attempted": 0, "failed": 0})
            modeled = {("modeled_digest", report["text"]["modeled_digest"])}
            for metric, m in report["metrics"].items():
                w["metrics"].setdefault(metric, []).append(m["value"])
                if is_modeled(metric, m["unit"]):
                    modeled.add((metric, m["value"]))
            w["modeled"].setdefault(report["seed"], set()).add(
                frozenset(modeled))
            w["attempted"] += report["attempted"]
            w["failed"] += report["failed"]
    return out, seeds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, change, better, bound, exact):
    """(verdict, win fraction) for one metric on one workload; base[i] and
    change[i] are one pair."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win_frac = wins / len(pairs)
    if exact:
        # The two runs of a pair share a seed and the metric repeats exactly
        # for a seed, so any difference within a pair is real: the spread
        # is 0 and so is the bound.
        if any(sign * (c - b) < 0 for b, c in pairs):
            return "regressed", win_frac
        if win_frac >= 0.9:
            return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved",
                    win_frac)
        return "no-worse", win_frac
    b_med, c_med = statistics.median(base), statistics.median(change)
    b_q1, b_q3 = quartiles(base)
    spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    worse_by = sign * (b_med - c_med) / abs(b_med) if b_med else 0.0
    if win_frac >= 0.9 and abs(c_med - b_med) > (b_q3 - b_q1) \
            and sign * (c_med - b_med) > 0:
        return ("improved" if len(pairs) >= MIN_PAIRS else "unresolved",
                win_frac)
    if spread > bound and not all_better:
        return "unresolved", win_frac
    if worse_by > bound:
        return "regressed", win_frac
    return "no-worse", win_frac


def summarize(paths):
    spec = load_spec()
    runs, _ = load_set(paths)
    wide = False
    print(f"{len(paths)} runs")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        print(f"\n{name} ({m['unit']}, bound {bound:.1%})")
        for w in sorted(runs):
            v = runs[w]["metrics"][name]
            med = statistics.median(v)
            q1, q3 = quartiles(v)
            spread = (q3 - q1) / abs(med) if med else 0.0
            if spread < bound / 3:
                state = "steady"
            elif spread <= bound:
                state = "within bound"
            else:
                state, wide = "TOO WIDE", True
            print(f"  {w:10s} median {med:12.5g} [{q1:.5g}, {q3:.5g}] "
                  f"spread {spread:6.2%}  {state}")
    print("\nfailures and determinism")
    for w in sorted(runs):
        modeled = runs[w]["modeled"]
        unstable = sorted(s for s, d in modeled.items() if len(d) > 1)
        print(f"  {w:10s} {runs[w]['failed']}/{runs[w]['attempted']} cells "
              f"failed; modeled values and digest "
              + (f"DIFFER between runs of seed {unstable}" if unstable
                 else f"repeat exactly ({len(modeled)} seeds)"))
        wide |= bool(unstable)
        wide |= runs[w]["failed"] > 0
    return 1 if wide else 0


def compare(base_paths, change_paths):
    if len(base_paths) != len(change_paths):
        sys.exit(f"compare.py: {len(base_paths)} parent runs but "
                 f"{len(change_paths)} change runs; pairs need equal sets")
    spec = load_spec()
    (base, base_seeds), (change, change_seeds) = (load_set(base_paths),
                                                  load_set(change_paths))
    if base_seeds != change_seeds:
        sys.exit(f"compare.py: pair seeds differ: parent {base_seeds}, "
                 f"change {change_seeds}")
    bad = False
    print(f"{len(base_paths)} pairs")
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        exact = is_modeled(name, unit)
        print(f"\n{name} ({unit}, {m['better']} is better, "
              + ("exact)" if exact else f"bound {m['bound']:.0%})"))
        print(f"  {'workload':10s} {'parent median [q1, q3]':>32s} "
              f"{'change median [q1, q3]':>32s} {'delta':>8s} {'wins':>6s}"
              f"  verdict")
        for w in sorted(base.keys() & change.keys()):
            b = base[w]["metrics"].get(name)
            c = change[w]["metrics"].get(name)
            if not b or not c:
                continue
            v, win = verdict(b, c, m["better"], m["bound"], exact)
            bad |= v == "regressed"
            bm, cm = statistics.median(b), statistics.median(c)
            bq, cq = quartiles(b), quartiles(c)
            delta = (cm - bm) / bm * 100 if bm else 0.0
            print(f"  {w:10s} {bm:12.5g} [{bq[0]:.5g}, {bq[1]:.5g}]"
                  f"{'':>2s} {cm:12.5g} [{cq[0]:.5g}, {cq[1]:.5g}]"
                  f" {delta:+7.2f}% {win:6.0%}  {v}")
    print("\nmodeled values, modeled_digest and failures")
    for w in sorted(base.keys() & change.keys()):
        bd, cd = base[w]["modeled"], change[w]["modeled"]
        seeds = sorted(bd.keys() & cd.keys())
        differ = [s for s in seeds if len(bd[s] | cd[s]) > 1]
        same = (f"DIFFER for seed {differ}" if differ
                else f"identical for seed {seeds}")
        fb = base[w]["failed"] / max(base[w]["attempted"], 1)
        fc = change[w]["failed"] / max(change[w]["attempted"], 1)
        bad |= base[w]["failed"] + change[w]["failed"] > 0
        print(f"  {w:10s} {same}; failed cells parent "
              f"{base[w]['failed']}/{base[w]['attempted']} ({fb:.1%}), "
              f"change {change[w]['failed']}/{change[w]['attempted']} "
              f"({fc:.1%})")
    return 1 if bad else 0


def run_pairs(parent, change, pairs, seed, out):
    seconds = load_spec()["run_seconds"]
    os.makedirs(out, exist_ok=True)
    paths = {"parent": [], "change": []}
    for i in range(pairs):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            path = os.path.abspath(os.path.join(out, f"{side}-{i:02d}.json"))
            subprocess.run(["bash", os.path.join(checkout, "benchmark",
                                                 "run.sh"),
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--out", path],
                           check=False, stdout=subprocess.DEVNULL)
            if not os.path.exists(path):
                sys.exit(f"compare.py: {side} run {i} wrote no {path}")
            paths[side].append(path)
    return paths["parent"], paths["change"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+")
    p.add_argument("--change", nargs="+")
    p.add_argument("--run", nargs=2, metavar=("PARENT", "CHANGE"))
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default=os.path.join(HERE, "..", "build-bench",
                                                  "compare"))
    a = p.parse_args()
    if a.run:
        base, change = run_pairs(*a.run, a.pairs, a.seed, a.out)
    elif a.base and a.change:
        base, change = a.base, a.change
    elif a.base:
        sys.exit(summarize(a.base))
    else:
        p.error("give --base (and --change), or --run")
    sys.exit(compare(base, change))


if __name__ == "__main__":
    main()
