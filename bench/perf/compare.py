#!/usr/bin/env python3
"""Compare two sets of perf_harness --json outputs against BENCHMARK.json bounds.

    python3 bench/perf/compare.py --a A1.json A2.json ... --b B1.json B2.json ...
                                  [--benchmark BENCHMARK.json]

Set A is the baseline (the parent commit), set B the change.  Runs pair up
by position (A1 with B1, ...), so alternate which side runs first when
making them.  For each (workload, end-to-end metric) the tool prints both
sets' medians and quartiles, the fraction of pairs B wins (ties count for
neither side) and a verdict:

  regressed   B's median is worse than A's by more than the metric's bound
              (a share of A's median)
  unresolved  A's quartile spread exceeds the bound, so "unchanged" cannot
              be told apart from noise, unless every B run beats every A run
  improved    at least ten pairs, B wins at least 9/10 of them and the
              medians differ by more than A's quartile spread (or every B
              run beats every A run while A is too noisy to resolve)
  unchanged   otherwise; with fewer than ten pairs no gain is claimed
              (five same-commit pairs read "improved" by chance about one
              metric in thirty)

ratio and psnr_db are exact for a given seed.  Their BENCHMARK.json bounds
must cover how far they move from seed to seed, so when the two runs of
each pair used the same seed they are also checked pair by pair against
PAIRED_BOUNDS: B regresses when it is worse than A at the same seed by more
than that share in any pair.

Exits 1 when anything regressed or a run of set B failed an op.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
MIN_PAIRS_FOR_GAIN = 10
# Share of A's value by which B may be worse at the same seed: 0.1% of the
# ratio, and about 0.01 dB of a PSNR near 65 dB.
PAIRED_BOUNDS = {"ratio": 0.001, "psnr_db": 0.0002}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a, b, better, bound, paired_bound=None):
    """Verdict and pair-win fraction for one metric; `a`, `b` are value lists.

    `paired_bound`, when given, is checked against every pair on its own.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0) / len(pairs)
    a_med, b_med = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    spread = q3 - q1
    worse = sign * (a_med - b_med) / abs(a_med) if a_med else 0.0
    enough = len(pairs) >= MIN_PAIRS_FOR_GAIN
    all_better = enough and all(sign * (y - x) > 0 for x in a for y in b)
    if worse > bound:
        return "regressed", wins
    if paired_bound is not None and any(
            x and sign * (x - y) / abs(x) > paired_bound for x, y in pairs):
        return "regressed", wins
    if a_med and spread / abs(a_med) > bound:
        return ("improved" if all_better else "unresolved"), wins
    if enough and wins >= 0.9 and abs(b_med - a_med) > spread:
        return "improved", wins
    return "unchanged", wins


def load(paths):
    """{workload: {metric: [values...]}}, the runs' seeds in order, and the
    names of runs with failed ops."""
    values, seeds, failed = {}, [], []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        seeds.append(doc["seed"])
        for name, w in doc["workloads"].items():
            if not w["correct"] or w["failed"]:
                failed.append(f"{path}:{name}")
            for metric, m in w["end_to_end"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(m["value"])
    return values, seeds, failed


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--a", nargs="+", required=True, help="baseline harness JSON files")
    p.add_argument("--b", nargs="+", required=True, help="candidate harness JSON files")
    p.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    a, a_seeds, a_failed = load(args.a)
    b, b_seeds, b_failed = load(args.b)
    same_seeds = len(a_seeds) == len(b_seeds) and a_seeds == b_seeds
    if not same_seeds:
        print("note: the sets' seeds do not pair up; ratio and psnr_db get only their "
              "BENCHMARK.json bounds", file=sys.stderr)
    for run in a_failed:
        print(f"warning: baseline run {run} had failed ops", file=sys.stderr)
    for run in b_failed:
        print(f"error: candidate run {run} had failed ops", file=sys.stderr)

    print(f"{'workload':14s} {'metric':16s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'B wins':>7s}  verdict")
    regressed = False
    for workload in sorted(set(a) & set(b)):
        for m in metrics:
            name = m["name"]
            av, bv = a[workload].get(name), b[workload].get(name)
            if not av or not bv:
                print(f"{workload:14s} {name:16s} missing from one set")
                continue
            paired = PAIRED_BOUNDS.get(name) if same_seeds else None
            v, wins = verdict(av, bv, m["better"], m["bound"], paired)
            regressed = regressed or v == "regressed"
            cells = []
            for vals in (av, bv):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.6g} [{q1:.6g}, {q3:.6g}]")
            print(f"{workload:14s} {name:16s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{wins:7.0%}  {v}")
    for workload in sorted(set(a) ^ set(b)):
        print(f"{workload:14s} present in only one set")
    return 1 if regressed or b_failed else 0


if __name__ == "__main__":
    sys.exit(main())
