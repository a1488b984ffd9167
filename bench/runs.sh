#!/usr/bin/env bash
# Collects one set of runs: every workload RUNS times, each with another seed.
#
#   bench/runs.sh OUT.jsonl [RUNS=10] [FIRST_SEED=1] [TRACE=0] [SECONDS=20]
#
# Run from the repository root. Appends one line per run to OUT.jsonl:
#   {"workload": "...", "seed": N, "trace": T, "result": {...last line of the run...}}
# Compare two sets (or inspect one) with bench/compare.sh.
set -euo pipefail
out=${1:?usage: bench/runs.sh OUT.jsonl [RUNS] [FIRST_SEED] [TRACE] [SECONDS]}
runs=${2:-10}
first=${3:-1}
trace=${4:-0}
seconds=${5:-20}
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml
for workload in ring_64b_agreed ring_2k_safe broker_udp_wal fault_n5_safe; do
  for ((i = 0; i < runs; i++)); do
    seed=$((first + i))
    result=$(cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
      --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    echo "{\"workload\": \"$workload\", \"seed\": $seed, \"trace\": $trace, \"result\": $result}" >>"$out"
    echo "$workload seed $seed done" >&2
  done
done
