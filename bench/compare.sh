#!/usr/bin/env bash
# Compares two sets of runs collected with bench/runs.sh, or inspects one.
#
#   bench/compare.sh A.jsonl [B.jsonl]
#
# Per workload and end-to-end metric: each set's median and spread (the
# distance between the first and third quartile of its values, as
# statistics.quantiles(values, n=4) gives them, as a share of the median),
# how much worse B's median is than A's, and the metric's bound from
# BENCHMARK.json. A pair is "unresolved" when either set's own spread
# exceeds the bound: the runs cannot tell a change of that size from noise.
set -euo pipefail
exec python3 - "$@" <<'PY'
import json, statistics, sys

def load(path):
    sets = {}
    for line in open(path):
        if not line.strip():
            continue
        run = json.loads(line)
        if run.get("trace"):
            continue
        for name, m in run["result"]["metrics"].items():
            sets.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
    return sets

def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(statistics.median(values))

if len(sys.argv) not in (2, 3):
    sys.exit("usage: bench/compare.sh A.jsonl [B.jsonl]")
bench = json.load(open("BENCHMARK.json"))
spec = {m["name"]: m for m in bench["end_to_end"]}
a = load(sys.argv[1])
b = load(sys.argv[2]) if len(sys.argv) == 3 else None
bad = 0
print(f"{'workload':<16} {'metric':<18} {'n':>3} {'median A':>14} {'spread A':>9}", end="")
print(f" {'n':>3} {'median B':>14} {'spread B':>9} {'B worse by':>10}" if b else "", end="")
print(f" {'bound':>6}  verdict")
for workload in a:
    for name, m in spec.items():
        va = a[workload].get(name)
        if not va:
            continue
        bound = m["bound"]
        ma, sa = statistics.median(va), spread(va)
        row = f"{workload:<16} {name:<18} {len(va):>3} {ma:>14.4f} {sa:>8.2%}"
        noisy = sa > bound and name != "setup_s"
        verdict = "ok"
        if b:
            vb = b.get(workload, {}).get(name)
            if not vb:
                continue
            mb, sb = statistics.median(vb), spread(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            noisy = noisy or (sb > bound and name != "setup_s")
            row += f" {len(vb):>3} {mb:>14.4f} {sb:>8.2%} {worse:>+9.2%}"
            if worse > bound:
                verdict = "WORSE"
        if noisy:
            verdict = "unresolved" if b else "TOO NOISY"
        elif not b and sa > bound / 3:
            verdict = "over a third of the bound"
        bad += verdict in ("WORSE", "unresolved", "TOO NOISY")
        print(f"{row} {bound:>6.2f}  {verdict}")
sys.exit(1 if bad else 0)
PY
