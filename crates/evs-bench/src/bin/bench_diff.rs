//! The bench-regression gate: re-run the deterministic smoke scenarios
//! and diff every counter against the committed baseline.
//!
//! Run with (or via `./ci.sh bench-diff`):
//!
//! ```text
//! cargo run --release -p evs-bench --bin bench_diff -- BENCH_baseline.txt
//! ```
//!
//! Exits 1 when any metric moved outside its allowance — cost counters
//! one-sided (only increases fail), fixed-load work counters two-sided —
//! or a scenario is on one side only, and 2 when the baseline cannot be
//! read (naming the file and line). See [`evs_bench::diff`] for the
//! threshold model. After an intentional protocol change, refresh the
//! baseline with `./ci.sh bench-smoke` and commit the diff.

use evs_bench::{diff, smoke};

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_baseline.txt".to_string());
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("bench-diff: cannot read {path}: {e}");
        std::process::exit(2)
    });
    let baseline = diff::parse_baseline(&text).unwrap_or_else(|e| {
        eprintln!("bench-diff: {path}:{e}");
        std::process::exit(2)
    });
    eprintln!(
        "bench-diff: re-running smoke scenarios against {path} \
         (tolerance ±{:.0}%, floor ±{})",
        diff::RELATIVE_TOLERANCE * 100.0,
        diff::ABSOLUTE_TOLERANCE
    );
    let report = diff::compare(&baseline, &smoke::run());
    print!("{}", report.to_text());
    if !report.is_clean() {
        eprintln!(
            "bench-diff: counter regression vs {path}; if intentional, refresh the \
             baseline with ./ci.sh bench-smoke and commit it"
        );
        std::process::exit(1);
    }
}
