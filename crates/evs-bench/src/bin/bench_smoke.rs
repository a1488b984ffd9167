//! Benchmark smoke run: a fast, deterministic pass over the instrumented
//! message-pump path that writes a machine-readable counter baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p evs-bench --bin bench_smoke            # stdout + file
//! cargo run --release -p evs-bench --bin bench_smoke -- out.json
//! ```
//!
//! It finishes in seconds: it runs the [`evs_bench::smoke`] scenarios and
//! emits one [`evs_bench::report_json_with_extras`] line per scenario,
//! simulated-time figures included. `ci.sh bench-smoke` runs it and
//! stores the output as
//! `BENCH_baseline.json` at the repository root; `ci.sh bench-diff`
//! (the `bench_diff` binary) re-runs the same scenarios and fails CI when
//! a counter drifts outside tolerance — see [`evs_bench::diff`].

use evs_bench::smoke;

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
    let body = smoke::baseline_json(&scenarios);
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
