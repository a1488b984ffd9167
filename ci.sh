#!/usr/bin/env sh
# Repository CI: build, test, format, lint and doc — everything offline (all
# external dependencies are vendored, see vendor/README.md).
#
#   ./ci.sh              # the standard gate: every step below, in order
#   ./ci.sh <step>       # one step: build-test, e2e-smoke, chaos-smoke,
#                        #   corruption-smoke, kill-recovery, obs-smoke,
#                        #   bench-diff, soaks, lint
#   ./ci.sh bench-smoke  # refresh BENCH_baseline.json (not in the gate)
#   ./ci.sh loc          # print the non-test line count CHANGES.md quotes
#
# The soaks step runs whatever these select (all optional, all off by default):
#   CHAOS_ITERS=50000  LIVE_CHAOS_ITERS=2000  KILL_CHAOS_ITERS=2000
#   CHAOS_FACTORY_ITERS=5000 (strict: a never-fired fault kind fails it)
#   BENCH_SMOKE=1 (bench baseline refresh)
#
# bench-diff re-runs the deterministic smoke scenarios and compares every
# counter against BENCH_baseline.json (cost counters one-sided, fixed-load
# work counters two-sided). Widen the allowance for a run with
# BENCH_DIFF_TOLERANCE (a fraction, e.g. 0.5 for ±50%); after an
# intentional protocol change, refresh the baseline with
# ./ci.sh bench-smoke and commit the diff.
#
# e2e-smoke runs the BENCHMARK.json command for 2 s per workload: wall
# time is machine-dependent, so it gates only that the benchmark builds
# from this tree, that every run is correct with no failed operation, and
# that heap_b_per_op stays a window on the two ring workloads (an
# allocator count over fixed-work epochs, so the same on every machine:
# 753 and 6,733 B/op with a ring store that is never pruned, under 30
# with one pruned at the safe line). It runs directly after build-test: a
# benchmark that no longer builds or runs against this tree, or protocol
# state that grows with a configuration's age again, should cost two
# minutes to find, not the gate.
#
# Fails on the first broken step.
set -eu

cd "$(dirname "$0")"

SERVE_PID=""
LOCK_BACKUP=""
cleanup() {
    [ -z "$SERVE_PID" ] || kill "$SERVE_PID" 2>/dev/null || true
    [ -z "$LOCK_BACKUP" ] || mv "$LOCK_BACKUP" bench/Cargo.lock
}
trap cleanup EXIT

chaos() { ./target/release/examples/chaos "$@"; }

# A fixed-seed simulator campaign whose output must not change under a
# refactor: tee'd to target/verdicts/<name>.txt and hashed, so verdict
# identity with the parent is three equal hashes, not a hand-run diff.
hashed_chaos() {
    out=target/verdicts/$1
    shift
    mkdir -p target/verdicts
    rm -f "$out.failed"
    { chaos "$@" || echo "$?" >"$out.failed"; } | tee "$out.txt"
    sha256sum "$out.txt"
    [ ! -e "$out.failed" ]
}

build_test() {
    echo "== build (release) =="
    cargo build --release --offline --workspace
    echo "== tests =="
    cargo test -q --offline --workspace
    echo "== chaos: mutation self-test (pipeline catches a planted bug) =="
    # Only this one integration test runs with the deliberately broken engine;
    # the rest of the workspace's tests would (correctly) fail against it.
    cargo test -q --offline -p evs-chaos --features chaos-mutation --test mutation_self_test
    echo "== chaos: broker mutation self-test (planted dedup-ledger bug) =="
    # Same idea for the client path: the broker-mutation feature breaks the
    # OpLedger floor check, and the broker campaign must find and shrink it.
    cargo test -q --offline -p evs-chaos --features broker-mutation --test broker_mutation_self_test
}

chaos_smoke() {
    cargo build -q --release --offline --example chaos
    echo "== chaos: fixed-seed smoke campaign =="
    hashed_chaos chaos --iters 400 --seed 3203 --keep-going
    echo "== chaos: fixed-seed live smoke (hunting mix on the threaded driver) =="
    # Loss-heavy plans (droppct/delay, once simulator-only) executed on an
    # evs-runtime Cluster with real threads and per-link fault injection;
    # striped across 4 workers, merged deterministically.
    chaos --hunting --live --n 3 --jobs 4 --iters 200 --seed 424242
    echo "== chaos: fixed-seed kill/restart smoke (durability mix, simulator) =="
    hashed_chaos kill-chaos --kill-chaos --iters 200 --seed 90125 --keep-going
}

corruption_smoke() {
    cargo build -q --release --offline --example chaos
    echo "== chaos: fixed-seed corruption smoke (bit flips, wrap, desync, WAL rot) =="
    hashed_chaos corruption --corruption --jobs 4 --iters 200 --seed 648312 --keep-going
    echo "== chaos: fixed-seed live corruption smoke (same vocabulary, real threads) =="
    chaos --corruption --live --n 3 --jobs 4 --iters 60 --seed 271828
}

kill_recovery() {
    echo "== kill-recovery smoke (real kill -9 of an OS process, WAL respawn) =="
    cargo build -q --release --offline --example udp_cluster
    ./target/release/examples/udp_cluster --orchestrate 7
}

obs_smoke() {
    echo "== obs smoke (OBS? scrapes: seq advance, monotone counters, phase coverage, driver kind) =="
    cargo build -q --release --offline --example udp_cluster --example evs_top
    ./target/release/examples/udp_cluster --obs-smoke
    # And the dashboard end to end: a short served cluster in the
    # background (killed by the EXIT trap if a later line fails), two
    # evs_top frames scraped against it.
    ./target/release/examples/udp_cluster --serve 6 &
    SERVE_PID=$!
    sleep 1
    ./target/release/examples/evs_top --interval 500 --frames 2 \
        --endpoints chaos-artifacts/obs-endpoints.txt
    wait "$SERVE_PID"
    SERVE_PID=""
}

bench_smoke() {
    echo "== bench smoke (writes BENCH_baseline.json) =="
    cargo run -q --release --offline -p evs-bench --bin bench_smoke -- BENCH_baseline.json
}

bench_diff() {
    echo "== bench diff (counter regressions vs BENCH_baseline.json) =="
    cargo run -q --release --offline -p evs-bench --bin bench_diff -- BENCH_baseline.json
}

e2e_smoke() {
    echo "== e2e smoke (the BENCHMARK.json command: builds, correct, 0 failed, heap a window) =="
    # An --offline build rewrites bench/Cargo.lock in place when the
    # committed file lists a package the tree no longer has; the EXIT
    # trap puts the committed file back so the tree stays clean.
    mkdir -p target
    cp bench/Cargo.lock target/bench-Cargo.lock.committed
    LOCK_BACKUP=target/bench-Cargo.lock.committed
    for w in ring_64b_agreed ring_2k_safe broker_udp_wal fault_n5_safe; do
        cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
            --workload "$w" --seed 1 --seconds 2 --trace 0 >target/e2e-smoke.out
        verdict=$(tail -n 1 target/e2e-smoke.out)
        heap=$(echo "$verdict" | sed -n 's/.*"heap_b_per_op": {"value": \([0-9.]*\).*/\1/p')
        case "$w" in
        ring_64b_agreed) heap_max=64 ;;
        ring_2k_safe) heap_max=256 ;;
        *) heap_max="" ;;
        esac
        case "$verdict" in
        *'"correct": true'*'"failed": 0,'*) echo "  $w: correct, 0 failed, $heap heap B/op" ;;
        *) echo "e2e-smoke: $w: $verdict" && exit 1 ;;
        esac
        [ -z "$heap_max" ] ||
            awk -v heap="$heap" -v max="$heap_max" 'BEGIN { exit !(heap != "" && heap <= max) }' ||
            { echo "e2e-smoke: $w: heap_b_per_op '$heap' above $heap_max (unbounded state?)" && exit 1; }
    done
}

soaks() {
    cargo build -q --release --offline --example chaos
    if [ -n "${CHAOS_ITERS:-}" ]; then
        echo "== chaos: long soak (CHAOS_ITERS=${CHAOS_ITERS}) =="
        chaos --iters "${CHAOS_ITERS}" --seed 1
    fi
    if [ -n "${LIVE_CHAOS_ITERS:-}" ]; then
        echo "== chaos: live soak (LIVE_CHAOS_ITERS=${LIVE_CHAOS_ITERS}) =="
        chaos --hunting --live --n 3 --jobs 4 --iters "${LIVE_CHAOS_ITERS}" --seed 2
    fi
    if [ -n "${KILL_CHAOS_ITERS:-}" ]; then
        echo "== chaos: kill/restart soak (KILL_CHAOS_ITERS=${KILL_CHAOS_ITERS}) =="
        chaos --kill-chaos --jobs 4 --iters "${KILL_CHAOS_ITERS}" --seed 3
    fi
    if [ -n "${CHAOS_FACTORY_ITERS:-}" ]; then
        echo "== chaos: factory soak (CHAOS_FACTORY_ITERS=${CHAOS_FACTORY_ITERS}, strict coverage) =="
        # Every counterexample is shrunk and persisted under chaos-artifacts/;
        # a fault kind the mix can generate but never fired fails the run.
        chaos --factory --jobs 4 --iters "${CHAOS_FACTORY_ITERS}" --seed 4 --strict-coverage
    fi
    [ -z "${BENCH_SMOKE:-}" ] || bench_smoke
}

loc() {
    # Non-test lines of Rust, by PR 16's rule (bench/ is its own workspace).
    find crates src examples vendor -name '*.rs' -not -path '*/tests/*' |
        xargs cat | wc -l
}

lint() {
    echo "== rustfmt =="
    cargo fmt --check
    echo "== clippy (-D warnings, redundant clones surfaced) =="
    cargo clippy --workspace --all-targets --offline -- -D warnings -W clippy::redundant_clone
    echo "== rustdoc (-D warnings: a deletion must not leave a dangling doc link) =="
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline
}

case "${1:-all}" in
all)
    build_test
    e2e_smoke
    chaos_smoke
    corruption_smoke
    kill_recovery
    obs_smoke
    bench_diff
    soaks
    lint
    echo "ci: all green"
    ;;
build-test | chaos-smoke | corruption-smoke | kill-recovery | obs-smoke | \
    bench-smoke | bench-diff | e2e-smoke | soaks | loc | lint)
    "$(echo "$1" | tr - _)"
    ;;
*)
    echo "ci.sh: unknown step '$1' (see the header for the list)" >&2
    exit 2
    ;;
esac
