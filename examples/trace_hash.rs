//! Trace identity across trees: the full simulator trace of 150 generated
//! fault plans of one mix, printed in `trace_io` text form.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example trace_hash -- hunting | sha256sum
//! ./ci.sh trace-hash        # all four mixes, one sha256 each
//! ```
//!
//! MIX is `default`, `hunting`, `kill` or `corruption`. Every plan comes
//! from the default generator (n = 4) with that mix, seeds 5000–5149, and
//! runs through `Orchestrator::detached().execute`; each trace is preceded
//! by a `# <mix> seed <s> settled=<bool>` line. A refactor that must not
//! change behaviour leaves all four hashes unchanged, so two trees compare
//! by four hashes instead of a diff of every trace.

use evs::chaos::{FaultMix, GenConfig, Orchestrator, ScenarioGen};
use evs::core::trace_io::format_trace;
use std::io::Write;

/// The seeds every mix runs.
const SEEDS: std::ops::Range<u64> = 5000..5150;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_default();
    let mix = match name.as_str() {
        "default" => FaultMix::default(),
        "hunting" => FaultMix::hunting(),
        "kill" => FaultMix::kill_chaos(),
        "corruption" => FaultMix::corruption(),
        _ => {
            eprintln!("usage: trace_hash default|hunting|kill|corruption");
            std::process::exit(2)
        }
    };
    let gen = ScenarioGen::new(GenConfig {
        mix,
        ..GenConfig::default()
    });
    let orchestrator = Orchestrator::detached();
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    for seed in SEEDS {
        let (cluster, settled) = orchestrator.execute(&gen.plan(seed));
        writeln!(out, "# {name} seed {seed} settled={settled}").expect("stdout");
        out.write_all(format_trace(&cluster.trace()).as_bytes())
            .expect("stdout");
    }
    out.flush().expect("stdout");
}
