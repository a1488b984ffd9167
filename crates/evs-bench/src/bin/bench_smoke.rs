//! Benchmark smoke run: a fast, deterministic pass over the instrumented
//! message-pump path that writes a machine-readable counter baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p evs-bench --bin bench_smoke            # stdout + file
//! cargo run --release -p evs-bench --bin bench_smoke -- out.txt
//! ```
//!
//! It finishes in seconds: it runs the [`evs_bench::smoke`] scenarios and
//! emits one telemetry exposition per scenario ([`evs_bench::diff::baseline_text`]),
//! simulated-time figures included. `ci.sh bench-smoke` runs it and
//! stores the output as
//! `BENCH_baseline.txt` at the repository root; `ci.sh bench-diff`
//! (the `bench_diff` binary) re-runs the same scenarios and fails CI when
//! a counter drifts outside tolerance — see [`evs_bench::diff`].

use evs_bench::{diff, smoke};

fn main() {
    let out_path = std::env::args().nth(1);
    let scenarios = smoke::run();
    for s in &scenarios {
        eprintln!(
            "  {}: {} agreed in {} ticks, {} safe in {} ticks",
            s.key(),
            smoke::MESSAGES,
            s.agreed_ticks,
            smoke::MESSAGES,
            s.safe_ticks
        );
    }
    let body = diff::baseline_text(&scenarios);
    match out_path {
        Some(path) => {
            std::fs::write(&path, &body).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1)
            });
            eprintln!("bench smoke baseline written to {path}");
        }
        None => print!("{body}"),
    }
}
