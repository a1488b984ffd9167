#!/usr/bin/env sh
# Repository CI: build, test, format, lint and doc — everything offline (all
# external dependencies are vendored, see vendor/README.md).
#
#   ./ci.sh              # the standard gate: every step below, in order
#   ./ci.sh <step>       # one step: build-test, e2e-smoke, checker-scale,
#                        #   chaos-smoke, corruption-smoke, trace-hash,
#                        #   kill-recovery, obs-smoke, bench-diff, soaks, lint
#   ./ci.sh bench-smoke  # refresh BENCH_baseline.txt (not in the gate)
#   ./ci.sh loc          # print the non-test line count CHANGES.md quotes
#
# The soaks step runs whatever these select (all optional, all off by default):
#   CHAOS_ITERS=50000  LIVE_CHAOS_ITERS=2000  KILL_CHAOS_ITERS=2000
#   CHAOS_FACTORY_ITERS=5000 (strict: a never-fired fault kind fails it)
#   BENCH_SMOKE=1 (bench baseline refresh)
#
# bench-diff re-runs the deterministic smoke scenarios and compares every
# counter against BENCH_baseline.txt, one telemetry exposition per
# scenario (cost counters one-sided, fixed-load work counters two-sided,
# a scenario on one side only fails); after an intentional protocol
# change, refresh the baseline with ./ci.sh bench-smoke and commit the
# diff.
#
# checker-scale times the specification checker on fixed-seed traces of
# ~2k, ~20k and ~200k events and fails if the per-event cost at 200k is
# more than twice that at 2k (a pairwise step would be a hundred times),
# or if the step takes over a minute.
#
# trace-hash runs 150 generated plans of each of four fault mixes
# (default, hunting, kill, corruption; seeds 5000-5149) on the simulator
# and hashes their full traces per mix (the files stay in
# target/verdicts/). It fails if a hash differs from verdicts.sha256,
# which also holds the five fixed-seed simulator campaigns' hashes that
# chaos-smoke and corruption-smoke check: behaviour-preserving changes
# leave all nine unchanged. One of the five is the soak: the default mix
# over five processes (random splits, merges, crashes, recoveries,
# multicasts and runs, with loss and delay on top), each plan healed,
# settled and checked.
#
# e2e-smoke runs the BENCHMARK.json command for 2 s per workload: wall
# time is machine-dependent, so it gates on it once, where the gap is
# threefold, and otherwise only that the benchmark builds from this tree,
# that every run is correct with no failed operation, and that
# heap_b_per_op stays a window on the two ring workloads and the
# broker one (an allocator count over fixed-work epochs, so the same on
# every machine: 753 and 6,733 B/op with a ring store that is never
# pruned, under 30 with one pruned at the safe line; ~10 on broker_udp_wal,
# where a session or ledger entry that outlives its op would pass 16).
# peak_heap_mb is windowed on all four at about 3x what they read (0.74,
# 2.1, 7.3 and 0.39 MB): a decoded payload is a view that keeps its whole
# frame buffer alive, so one message retained past its batch holds every
# byte of the batch, which shows as a peak before it shows per op.
# op_latency_p50_us is windowed on fault_n5_safe at 1,200 us: its light
# load of safe ops waits on token hops, and reads about 480 us when only
# a quiescent ring holds the token, about 1,650 us when every visit that
# stamps nothing waits out token_pace. wire_b_per_op is windowed at 170
# on ring_64b_agreed, 5,000 on ring_2k_safe and 440 on fault_n5_safe: a
# data burst sent to the other ring members only reads about 144, 4,112
# and 385 B/op, and one also sent back to its sender about 216, 6,168 and
# 484 (the byte counts of the two rings repeat from run to run). It
# runs directly after build-test: a benchmark that no longer builds or
# runs against this tree, or protocol or broker state that grows with a
# run's age again, should cost two minutes to find, not the gate.
#
# lint also guards the layering: evs-inspect reads evs-core's traces, so
# neither evs-core nor evs-telemetry may depend on it, and evs-telemetry,
# the bottom crate that holds the one metrics document, depends on
# nothing at all (cargo tree).
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

# Fails unless the verdict file $1 hashes to its line in verdicts.sha256.
# A change that alters a verdict on purpose updates that file and says so
# in CHANGES.md.
check_verdict() {
    sha256sum "$1"
    awk -v f="$1" '$2 == f' verdicts.sha256 | sha256sum -c -
}

# A fixed-seed simulator campaign whose output must not change under a
# refactor: tee'd to target/verdicts/<name>.txt and checked against its
# committed hash.
hashed_chaos() {
    out=target/verdicts/$1
    shift
    mkdir -p target/verdicts
    rm -f "$out.failed"
    { chaos "$@" || echo "$?" >"$out.failed"; } | tee "$out.txt"
    [ ! -e "$out.failed" ]
    check_verdict "$out.txt"
}

build_test() {
    echo "== build (release) =="
    cargo build --release --offline --workspace
    echo "== tests =="
    # Every test binary runs even after one fails, so a failure list is
    # complete; the step still fails on any failure.
    cargo test -q --offline --workspace --no-fail-fast
    echo "== chaos: mutation self-test (pipeline catches a planted bug) =="
    # Only this one integration test runs with the deliberately broken engine;
    # the rest of the workspace's tests would (correctly) fail against it.
    cargo test -q --offline -p evs-chaos --features chaos-mutation --test mutation_self_test
    echo "== chaos: broker mutation self-test (planted dedup-ledger bug) =="
    # Same idea for the client path: the broker-mutation feature breaks the
    # OpLedger floor check, and the broker campaign must find and shrink it.
    cargo test -q --offline -p evs-chaos --features broker-mutation --test broker_mutation_self_test
}

checker_scale() {
    echo "== checker scale (check_all cost per event at ~2k, ~20k and ~200k events) =="
    cargo test -q --release --offline -p evs-core --test checker_scale -- --ignored --nocapture
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
    echo "== chaos: fixed-seed broker smoke (client-path mix, broker-fronted simulator) =="
    hashed_chaos broker --broker-chaos --iters 400 --seed 5151 --keep-going
    echo "== chaos: fixed-seed soak (five processes, default mix) =="
    hashed_chaos soak --n 5 --iters 400 --seed 20652 --keep-going
}

corruption_smoke() {
    cargo build -q --release --offline --example chaos
    echo "== chaos: fixed-seed corruption smoke (bit flips, wrap, desync, WAL rot) =="
    hashed_chaos corruption --corruption --jobs 4 --iters 200 --seed 648312 --keep-going
    echo "== chaos: fixed-seed live corruption smoke (same vocabulary, real threads) =="
    chaos --corruption --live --n 3 --jobs 4 --iters 60 --seed 271828
}

trace_hash() {
    echo "== trace hash (full simulator traces of 600 generated plans) =="
    cargo build -q --release --offline --example trace_hash
    mkdir -p target/verdicts
    for mix in default hunting kill corruption; do
        ./target/release/examples/trace_hash "$mix" >"target/verdicts/trace-$mix.txt"
        check_verdict "target/verdicts/trace-$mix.txt"
    done
}

kill_recovery() {
    echo "== kill-recovery smoke (real kill -9 of an OS process, WAL respawn) =="
    cargo build -q --release --offline --example udp_cluster
    ./target/release/examples/udp_cluster --orchestrate 7
    # The post-mortem is the n journals alone: no second file format.
    if ls chaos-artifacts/udp-kill-7/*.json >/dev/null 2>&1; then
        echo "kill-recovery: a JSON file in chaos-artifacts/udp-kill-7" && exit 1
    fi
    echo "== in-process UDP demo (its post-mortem document reloads to the same report) =="
    ./target/release/examples/udp_cluster
}

obs_smoke() {
    echo "== obs smoke (OBS? scrapes: seq advance, monotone counters, phase coverage, driver kind) =="
    cargo build -q --release --offline --example udp_cluster --example evs_top
    ./target/release/examples/udp_cluster --obs-smoke
    # The live client tier: 256 client sockets through the broker
    # front-end, every op replied exactly once, the broker scraped live.
    ./target/release/examples/udp_cluster --broker 256
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
    echo "== bench smoke (writes BENCH_baseline.txt) =="
    cargo run -q --release --offline -p evs-bench --bin bench_smoke -- BENCH_baseline.txt
}

bench_diff() {
    echo "== bench diff (counter regressions vs BENCH_baseline.txt) =="
    cargo run -q --release --offline -p evs-bench --bin bench_diff -- BENCH_baseline.txt
}

e2e_smoke() {
    echo "== e2e smoke (the BENCHMARK.json command: builds, correct, 0 failed, heap, wire and fault_n5_safe p50 windows) =="
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
        heap=$(metric heap_b_per_op)
        peak=$(metric peak_heap_mb)
        p50=$(metric op_latency_p50_us)
        wire=$(metric wire_b_per_op)
        p50_max="" wire_max=""
        case "$w" in
        ring_64b_agreed) heap_max=64 peak_max=2.5 wire_max=170 ;;
        ring_2k_safe) heap_max=256 peak_max=8 wire_max=5000 ;;
        broker_udp_wal) heap_max=16 peak_max=22 ;;
        *) heap_max="" peak_max=1.2 p50_max=1200 wire_max=440 ;;
        esac
        case "$verdict" in
        *'"correct": true'*'"failed": 0,'*) echo "  $w: correct, 0 failed, $heap heap B/op, $peak peak MB, p50 $p50 us, $wire wire B/op" ;;
        *) echo "e2e-smoke: $w: $verdict" && exit 1 ;;
        esac
        within heap_b_per_op "$heap" "$heap_max" "unbounded state?"
        within peak_heap_mb "$peak" "$peak_max" "unbounded state?"
        within op_latency_p50_us "$p50" "$p50_max" "a token held on an unsafe ring?"
        within wire_b_per_op "$wire" "$wire_max" "data frames looped back to their sender?"
    done
}

# The value of end-to-end metric $1 in the verdict line.
metric() {
    echo "$verdict" | sed -n "s/.*\"$1\": {\"value\": \([0-9.]*\).*/\1/p"
}

# Fails the smoke if metric $1's value $2 is above the window $3 (none if
# empty), naming the likely cause $4.
within() {
    [ -z "$3" ] ||
        awk -v v="$2" -v max="$3" 'BEGIN { exit !(v != "" && v <= max) }' ||
        { echo "e2e-smoke: $w: $1 '$2' above $3 ($4)" && exit 1; }
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
    echo "== layering (no evs-core or evs-telemetry dependency on evs-inspect; evs-telemetry depends on nothing) =="
    for crate in evs-core evs-telemetry; do
        deps=$(cargo tree --offline -e normal -p "$crate")
        case "$deps" in
        *evs-inspect*) echo "lint: $crate depends on evs-inspect" && exit 1 ;;
        esac
    done
    # The tree of a crate without dependencies is its own line alone.
    if [ "$(cargo tree --offline -e normal -p evs-telemetry | wc -l)" -ne 1 ]; then
        echo "lint: evs-telemetry has a dependency" && exit 1
    fi
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
    checker_scale
    chaos_smoke
    corruption_smoke
    trace_hash
    kill_recovery
    obs_smoke
    bench_diff
    soaks
    lint
    echo "ci: all green"
    ;;
build-test | checker-scale | chaos-smoke | corruption-smoke | trace-hash | kill-recovery | \
    obs-smoke | bench-smoke | bench-diff | e2e-smoke | soaks | loc | lint)
    "$(echo "$1" | tr - _)"
    ;;
*)
    echo "ci.sh: unknown step '$1' (see the header for the list)" >&2
    exit 2
    ;;
esac
