//! Soak harness: hammer the stack with randomized fault schedules and
//! verify every specification after each round.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example soak            # 25 rounds (default)
//! cargo run --release --example soak -- 200     # more rounds
//! cargo run --release --example soak -- 50 7    # rounds, base seed
//! ```
//!
//! Each round builds a fresh 5-process cluster, applies a random sequence
//! of partitions, merges, crashes, recoveries and message bursts, lets the
//! system quiesce, and then checks Specifications 1.1–7.2, the primary
//! history properties, and the §5 VS reduction. Any violation aborts with
//! a full trace dump — this is the long-running confidence machine behind
//! the test suite's property tests.

use evs::core::{EvsCluster, Service};
use evs::inspect::{check_all_with_telemetry, InspectReport};
use evs::sim::ProcessId;
use evs::telemetry::{counter_totals, Exposition};
use evs::vs::{check_vs, filter_trace, MajorityPrimary, PrimaryHistory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const N: usize = 5;

fn run_round(seed: u64) -> (usize, usize, Vec<Exposition>, InspectReport) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cluster = EvsCluster::<String>::builder(N)
        .seed(seed)
        .telemetry(true)
        .build();
    cluster.run_until_settled(400_000);
    let mut down = [false; N];
    let mut msg = 0u32;
    let steps = rng.gen_range(4..12);
    for _ in 0..steps {
        match rng.gen_range(0..6) {
            0 => {
                // random partition into up to 3 groups
                let mut groups: Vec<Vec<ProcessId>> = vec![Vec::new(); 3];
                for i in 0..N {
                    groups[rng.gen_range(0..3)].push(ProcessId::new(i as u32));
                }
                let groups: Vec<&[ProcessId]> = groups
                    .iter()
                    .filter(|g| !g.is_empty())
                    .map(|g| g.as_slice())
                    .collect();
                cluster.partition(&groups);
            }
            1 => cluster.merge_all(),
            2 => {
                let v = rng.gen_range(0..N);
                cluster.crash(ProcessId::new(v as u32));
                down[v] = true;
            }
            3 => {
                let v = rng.gen_range(0..N);
                cluster.recover(ProcessId::new(v as u32));
                down[v] = false;
            }
            4 => {
                for _ in 0..rng.gen_range(1..5) {
                    let at = rng.gen_range(0..N);
                    if !down[at] {
                        msg += 1;
                        let service = if msg.is_multiple_of(2) {
                            Service::Safe
                        } else {
                            Service::Agreed
                        };
                        cluster.submit(ProcessId::new(at as u32), service, format!("m{msg}"));
                    }
                }
            }
            _ => cluster.run_for(rng.gen_range(200..2_000)),
        }
    }
    // Quiesce fully.
    cluster.merge_all();
    for i in 0..N {
        cluster.recover(ProcessId::new(i as u32));
    }
    assert!(
        cluster.run_until_settled(3_000_000),
        "seed {seed}: failed to re-stabilize"
    );

    let trace = cluster.trace();
    // The dump-aware check: on violation the failure report carries every
    // process's flight-recorder tail alongside the broken specification.
    if let Err(failure) = check_all_with_telemetry(&trace, &cluster.telemetry_handles()) {
        let path = format!("/tmp/evs-soak-{seed}.trace");
        let _ = std::fs::write(&path, evs::core::trace_io::format_trace(&trace));
        eprintln!("seed {seed}: EVS violations:\n{failure}\ntrace archived to {path}");
        std::process::exit(1);
    }
    let policy = MajorityPrimary::new(N);
    let history = PrimaryHistory::from_trace(&trace, &policy);
    let pv = history.check(&trace);
    if !pv.is_empty() {
        eprintln!("seed {seed}: primary violations: {pv:#?}");
        std::process::exit(1);
    }
    if let Err(errors) = check_vs(&filter_trace(&trace, &policy)) {
        let path = format!("/tmp/evs-soak-{seed}.trace");
        let _ = std::fs::write(&path, evs::core::trace_io::format_trace(&trace));
        eprintln!("seed {seed}: VS violations: {errors:#?}\ntrace archived to {path}");
        std::process::exit(1);
    }
    let inspect = InspectReport::from_handles(&trace, &cluster.telemetry_handles());
    (trace.len(), msg as usize, cluster.snapshots(), inspect)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let rounds: u64 = args
        .next()
        .map(|a| a.parse().expect("rounds: integer"))
        .unwrap_or(25);
    let base_seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed: integer"))
        .unwrap_or(0x50AC);

    println!("== EVS soak: {rounds} randomized rounds (base seed {base_seed:#x}) ==");
    let mut total_events = 0usize;
    let mut total_msgs = 0usize;
    let mut cumulative: BTreeMap<String, u64> = BTreeMap::new();
    let mut last_snapshots = Vec::new();
    let mut last_inspect = None;
    for round in 0..rounds {
        let seed = base_seed.wrapping_add(round);
        let (events, msgs, snapshots, inspect) = run_round(seed);
        total_events += events;
        total_msgs += msgs;
        for (name, value) in counter_totals(&snapshots) {
            *cumulative.entry(name).or_default() += value;
        }
        last_snapshots = snapshots;
        last_inspect = Some(inspect);
        if round % 5 == 4 || round + 1 == rounds {
            println!(
                "  round {:>4}/{rounds}: cumulative {total_events} events, {total_msgs} messages — all specifications hold",
                round + 1
            );
        }
    }
    println!("soak complete: every round conformant ✓");
    println!("\n-- telemetry, final round (one exposition per process):");
    for expo in &last_snapshots {
        print!("{}", expo.to_text());
    }
    if let Some(inspect) = last_inspect {
        println!("\n-- lifecycle spans, final round (timeline tail):");
        print!("{}", inspect.to_text(Some(20)));
    }
    println!("\n-- telemetry, counter totals across all {rounds} rounds:");
    for (name, value) in &cumulative {
        println!("  {name:<32} {value}");
    }
}
