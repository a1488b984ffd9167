//! The smoke scenarios' message pump over many network seeds.
//!
//! Each `bench_smoke` scenario runs one seed, so a change that reorders
//! simulator events re-deals the shared random stream and can move a
//! single-seed latency figure either way. This sweep reruns the same
//! 64-message agreed and safe pumps on `--seeds` seeds per scenario and
//! prints the means, which a reordering alone does not move.
//!
//! ```text
//! cargo run --release -p evs-bench --example seed_sweep -- --seeds 100
//! ```
//!
//! The scenarios are `smoke::setups()` with only the network seed
//! replaced. Columns, all in simulated ticks: the mean
//! origination→delivery latency of the agreed and safe messages (the
//! mean over seeds of each seed's mean), and the mean and median over
//! seeds of the time from the agreed pump's submission to its last
//! delivery anywhere; each mean with its standard error. A lossy
//! scenario runs five times the seeds: its spread is the widest.

use evs_bench::{pump_messages, smoke};
use evs_core::{EvsCluster, Service};
use evs_telemetry::{names, LogHistogramSnapshot};

/// The mean of the named latency histogram over every process.
fn mean_latency(cluster: &EvsCluster<u64>, name: &'static str) -> f64 {
    let mut merged = LogHistogramSnapshot::default();
    for h in cluster
        .telemetry_handles()
        .iter()
        .filter_map(|t| t.log_histogram(name).snapshot())
    {
        merged.merge(&h);
    }
    merged.mean()
}

/// The mean of `xs` and its standard error, as `mean ± se`.
fn mean_se(xs: &[f64]) -> String {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
    format!("{mean:.1} ± {:.1}", (var / n).sqrt())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds = match args.as_slice() {
        [] => 100,
        [flag, n] if flag == "--seeds" => n.parse().expect("--seeds takes a count"),
        _ => {
            eprintln!("usage: seed_sweep [--seeds N]");
            std::process::exit(2)
        }
    };
    println!(
        "| scenario | seeds | agreed latency | safe latency | agreed last delivery (mean / p50) |"
    );
    println!("|---|---:|---:|---:|---:|");
    for (n, label, params, mut net) in smoke::setups() {
        let label = smoke::key(n, label);
        let seeds = if net.drop_prob > 0.0 {
            5 * seeds
        } else {
            seeds
        };
        let (mut agreed, mut safe, mut last) = (Vec::new(), Vec::new(), Vec::new());
        for seed in 1..=seeds {
            net.seed = seed;
            let mut cluster = EvsCluster::<u64>::builder(n)
                .net(net.clone())
                .params(params.clone())
                .telemetry(true)
                .build();
            assert!(
                cluster.run_until_settled(1_000_000),
                "{label} seed {seed}: no ring"
            );
            last.push(pump_messages(&mut cluster, smoke::MESSAGES, Service::Agreed) as f64);
            pump_messages(&mut cluster, smoke::MESSAGES, Service::Safe);
            agreed.push(mean_latency(&cluster, names::DELIVERY_LATENCY_AGREED));
            safe.push(mean_latency(&cluster, names::DELIVERY_LATENCY_SAFE));
        }
        last.sort_by(f64::total_cmp);
        println!(
            "| {label} | {seeds} | {} | {} | {} / {} |",
            mean_se(&agreed),
            mean_se(&safe),
            mean_se(&last),
            last[last.len() / 2]
        );
    }
}
