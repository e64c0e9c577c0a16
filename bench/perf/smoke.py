#!/usr/bin/env python3
"""bench_perf_smoke: every workload on tiny fields, 3 ops each, traced.

    python3 smoke.py <perf_harness> <BENCHMARK.json> <scratch dir>

Checks that the harness exits 0 with no failed op, reports every metric
BENCHMARK.json names with the same unit, writes a trace that parses with no
negative self time, and replays every op byte-identically.
"""
import json
import os
import subprocess
import sys


def self_times(events):
    """Duration minus the union of child intervals, per complete event."""
    spans = {e["args"]["id"]: e for e in events if e.get("ph") == "X"}
    children = {}
    for e in spans.values():
        children.setdefault(e["args"]["parent"], []).append(e)
    out = {}
    for i, e in spans.items():
        start, end = e["ts"], e["ts"] + e["dur"]
        busy, reach = 0.0, start
        for c in sorted(children.get(i, []), key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], reach), min(c["ts"] + c["dur"], end)
            if hi > lo:
                busy += hi - lo
                reach = hi
        out[i] = e["dur"] - busy
    return out


def main():
    harness, bench_path, scratch = sys.argv[1:4]
    os.makedirs(scratch, exist_ok=True)
    trace_path = os.path.join(scratch, "trace.json")
    json_path = os.path.join(scratch, "smoke.json")
    with open(bench_path) as f:
        bench = json.load(f)

    p = subprocess.run([harness, "--workload", "all", "--smoke", "--seed", "7",
                        "--trace", trace_path, "--json", json_path, "--workdir", scratch],
                       capture_output=True, text=True, timeout=100)
    sys.stdout.write(p.stdout)
    sys.stderr.write(p.stderr)
    errors = []
    if p.returncode != 0:
        errors.append(f"harness exited {p.returncode}")
    last = json.loads(p.stdout.strip().splitlines()[-1])
    if not last["correct"] or last["failed"] != 0:
        errors.append(f"result line reports failures: {last['failed']}")

    with open(json_path) as f:
        result = json.load(f)["workloads"]
    if sorted(result) != sorted(w["name"] for w in bench["workloads"]):
        errors.append(f"workloads {sorted(result)} differ from BENCHMARK.json")
    for name, w in result.items():
        if w["failed"] != 0:
            errors.append(f"{name}: failed_frac {w['failed'] / w['attempted']}")
        for section in ("end_to_end", "per_layer"):
            for m in bench[section]:
                got = w[section].get(m["name"])
                if got is None or m["name"] not in p.stdout:
                    errors.append(f"{name}: metric {m['name']} not printed")
                elif got["unit"] != m["unit"]:
                    errors.append(f"{name}: {m['name']} unit {got['unit']} != {m['unit']}")
        frac = w["per_layer"].get("trace.replay_identical_frac", {}).get("value")
        if frac != 1:
            errors.append(f"{name}: trace.replay_identical_frac = {frac}")

    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    negative = [i for i, s in self_times(events).items() if s < -1e-3]
    if negative:
        errors.append(f"trace: {len(negative)} span(s) with negative self time")
    if not any(e.get("args", {}).get("synthetic") for e in events):
        errors.append("trace: no synthetic stage spans")

    for e in errors:
        print(f"bench_perf_smoke: {e}", file=sys.stderr)
    print(f"bench_perf_smoke: {'FAIL' if errors else 'PASS'}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
