//! # evs-bench — the deterministic counter gate
//!
//! The paper is a model/algorithm paper and reports no performance tables.
//! This crate measures the reproduction's protocol cost in *simulated*
//! time and protocol counters (ticks, token rotations, retransmissions),
//! which are exact per seed: a diff between two runs of the same code is
//! zero, so any drift is a signal CI can gate on.
//!
//! * [`smoke`] — the fixed scenarios behind `BENCH_baseline.txt`
//!   (`./ci.sh bench-smoke`, the `bench_smoke` binary).
//! * [`diff`] — writes and reads that baseline (one telemetry exposition
//!   per scenario), re-runs the scenarios and compares every counter
//!   against it (`./ci.sh bench-diff`, the `bench_diff` binary).
//!
//! Wall-clock cost is measured by the separate `bench/` workspace that
//! `BENCHMARK.json` drives. See `EXPERIMENTS.md` (B1, B2, B7–B9) for what
//! the scenarios regenerate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use evs_core::{EvsCluster, EvsEvent, Service};
use evs_sim::{ProcessId, SimTime};

/// The latest timestamp of an event matching `pred` anywhere in the trace.
fn last_event_time(trace: &evs_core::Trace, pred: impl Fn(&EvsEvent) -> bool) -> Option<SimTime> {
    trace
        .events
        .iter()
        .flat_map(|log| log.iter())
        .filter(|(_, e)| pred(e))
        .map(|(t, _)| *t)
        .max()
}

/// Submits `k` messages round-robin and runs until everything is delivered
/// everywhere. Returns the simulated ticks from submission to the last
/// delivery anywhere (exact, from trace timestamps).
///
/// # Panics
///
/// Panics if the cluster fails to settle.
pub fn pump_messages(cluster: &mut EvsCluster<u64>, k: u64, service: Service) -> u64 {
    let n = cluster.processes().len() as u64;
    let start = cluster.now();
    for i in 0..k {
        cluster.submit(ProcessId::new((i % n) as u32), service, i);
    }
    assert!(cluster.run_until_settled(5_000_000), "message pump stalled");
    let end = last_event_time(&cluster.trace(), |e| matches!(e, EvsEvent::Deliver { .. }))
        .unwrap_or(start);
    end.since(start)
}

/// The deterministic smoke scenarios behind `BENCH_baseline.txt` and the
/// `./ci.sh bench-diff` regression gate.
///
/// One fixed message load pumped through settled clusters, same seeds
/// every run — so the counter snapshot is reproducible and any drift
/// between two runs of the same code is zero. That exactness is what
/// makes a counter diff meaningful as a CI gate.
///
/// * `n3`, `n5`, `n8` — default parameters at three group sizes: ticks
///   per message and agreed-vs-safe latency against n (B1, B2).
/// * `n5/window4`, `n5/loss5`, `n5/pace8` — one non-default point each
///   of the flow-control window, the loss rate and the token pacing
///   (B7, B8, B9) on n = 5; read each against `n5`.
pub mod smoke {
    use super::pump_messages;
    use evs_core::{EvsCluster, EvsParams, Service};
    use evs_sim::NetConfig;
    use evs_telemetry::{counter_totals, names, LogHistogramSnapshot, Telemetry};
    use std::collections::BTreeMap;

    /// Fixed base seed for every smoke scenario.
    pub const SEED: u64 = 0xB5E0;
    /// Messages pumped per service class per scenario.
    pub const MESSAGES: u64 = 64;

    /// One executed smoke scenario: its counter totals plus the
    /// simulated-time figures.
    pub struct Scenario {
        /// Cluster size.
        pub n: usize,
        /// What differs from the default configuration (`""` for none).
        pub label: &'static str,
        /// Simulated ticks to deliver the agreed-service load everywhere.
        pub agreed_ticks: u64,
        /// Simulated ticks to deliver the safe-service load everywhere.
        pub safe_ticks: u64,
        /// Counter totals summed across processes, with the merged
        /// delivery-latency percentiles (`latency_*_ticks`) added.
        pub totals: BTreeMap<String, u64>,
    }

    impl Scenario {
        /// The stable scenario key both sides of a diff are matched on:
        /// the cluster size plus the label, if any.
        pub fn key(&self) -> String {
            key(self.n, self.label)
        }
    }

    /// The key of the scenario with cluster size `n` and `label`.
    pub fn key(n: usize, label: &str) -> String {
        if label.is_empty() {
            format!("bench_smoke/n{n}")
        } else {
            format!("bench_smoke/n{n}/{label}")
        }
    }

    /// The scenario table: `(n, label, params, net)`, in baseline order.
    pub fn setups() -> Vec<(usize, &'static str, EvsParams, NetConfig)> {
        let net = |n: usize| NetConfig {
            seed: SEED + n as u64,
            ..NetConfig::default()
        };
        let plain = |n: usize| (n, "", EvsParams::default(), net(n));
        vec![
            plain(3),
            plain(5),
            (
                5,
                "window4",
                EvsParams {
                    max_per_visit: 4,
                    ..EvsParams::default()
                },
                net(5),
            ),
            (
                5,
                "loss5",
                EvsParams::default(),
                NetConfig::lossy(0.05, 0xB8),
            ),
            (
                5,
                "pace8",
                EvsParams {
                    token_pace: 8,
                    ..EvsParams::default()
                },
                net(5),
            ),
            plain(8),
        ]
    }

    /// Runs every smoke scenario (deterministic; a few seconds).
    ///
    /// Besides the raw counter totals, each scenario gates the
    /// origination→delivery latency percentiles (in simulated ticks, so
    /// they are exact and machine-independent) for the agreed and safe
    /// loads — a latency regression fails the diff like a counter
    /// regression does.
    ///
    /// # Panics
    ///
    /// Panics if a group does not form or a load does not settle.
    pub fn run() -> Vec<Scenario> {
        setups()
            .into_iter()
            .map(|(n, label, params, net)| {
                let mut cluster = EvsCluster::<u64>::builder(n)
                    .net(net)
                    .params(params)
                    .telemetry(true)
                    .build();
                assert!(cluster.run_until_settled(1_000_000), "formation stalled");
                let agreed_ticks = pump_messages(&mut cluster, MESSAGES, Service::Agreed);
                let safe_ticks = pump_messages(&mut cluster, MESSAGES, Service::Safe);
                let mut totals = counter_totals(&cluster.snapshots());
                let handles = cluster.telemetry_handles();
                for service in [Service::Agreed, Service::Safe] {
                    if let Some(lat) = merged_histogram(&handles, latency_name(service)) {
                        totals.insert(format!("latency_{service}_p50_ticks"), lat.percentile(0.50));
                        totals.insert(format!("latency_{service}_p99_ticks"), lat.percentile(0.99));
                    }
                }
                Scenario {
                    n,
                    label,
                    agreed_ticks,
                    safe_ticks,
                    totals,
                }
            })
            .collect()
    }

    /// The per-service origination→delivery latency histogram name.
    fn latency_name(service: Service) -> &'static str {
        match service {
            Service::Causal => names::DELIVERY_LATENCY_CAUSAL,
            Service::Agreed => names::DELIVERY_LATENCY_AGREED,
            Service::Safe => names::DELIVERY_LATENCY_SAFE,
        }
    }

    /// Merges the named histogram's buckets across every enabled handle;
    /// `None` when telemetry is detached. A snapshot's per-process
    /// quantile summaries cannot be combined into a cross-process
    /// quantile, so the percentiles are read from the merged buckets.
    fn merged_histogram(handles: &[Telemetry], name: &'static str) -> Option<LogHistogramSnapshot> {
        let mut merged: Option<LogHistogramSnapshot> = None;
        for h in handles
            .iter()
            .filter_map(|t| t.log_histogram(name).snapshot())
        {
            merged.get_or_insert_with(Default::default).merge(&h);
        }
        merged
    }
}

pub mod diff;
