//! Cross-layer telemetry integration: the same scenario produces
//! populated snapshots under the deterministic simulator and under the
//! threaded driver, counters agree with the specification-checker's view
//! of the trace, and a violation ships the flight recorder with it.

use evs::core::EvsEvent;
use evs::core::{Configuration, EvsCluster, EvsParams, EvsProcess, Payload, Service, Trace};
use evs::inspect::{assert_evs_with_telemetry, check_all_with_telemetry};
use evs::membership::ConfigId;
use evs::runtime::Cluster;
use evs::sim::ProcessId;
use evs::telemetry::{names, total, Exposition, Telemetry, TelemetryEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// The shared scenario: three processes form a group and P0 multicasts one
/// safe and one agreed message. Under the simulator.
fn sim_scenario() -> EvsCluster<String> {
    let mut cluster = EvsCluster::<String>::builder(3)
        .seed(0x7E1E)
        .telemetry(true)
        .build();
    assert!(cluster.run_until_settled(400_000), "formation stalled");
    cluster.submit(p(0), Service::Safe, "safe".into());
    cluster.submit(p(0), Service::Agreed, "agreed".into());
    cluster.run_for(10_000);
    cluster
}

fn assert_populated(run: &[Exposition], label: &str) {
    assert_eq!(run.len(), 3, "{label}: one snapshot per process");
    assert!(
        total(run, "messages_sent") >= 2,
        "{label}: expected the two submissions, got {}",
        total(run, "messages_sent")
    );
    assert!(
        total(run, "messages_delivered") >= 2 * 3,
        "{label}: every process delivers both messages"
    );
    assert!(
        total(run, "token_rotations") > 0,
        "{label}: the ring rotated"
    );
    assert!(
        total(run, "configs_installed") > 0,
        "{label}: membership installed configurations"
    );
    // The text carries the counters and reads back exactly.
    for expo in run {
        let text = expo.to_text();
        assert!(
            text.contains("counter messages_delivered "),
            "{label}: {text}"
        );
        assert_eq!(Exposition::parse(&text).as_ref(), Ok(expo), "{label}");
    }
}

#[test]
fn sim_run_produces_populated_report() {
    let cluster = sim_scenario();
    assert_populated(&cluster.snapshots(), "sim");
    // The trace is conformant, so the dump-aware check passes too.
    check_all_with_telemetry(&cluster.trace(), &cluster.telemetry_handles()).unwrap();
}

#[test]
fn loaded_ring_fills_the_per_visit_and_latency_histograms() {
    const MESSAGES: u64 = 64;
    let mut cluster = EvsCluster::<String>::builder(3)
        .seed(0x7E1E)
        .telemetry(true)
        .build();
    assert!(cluster.run_until_settled(400_000), "formation stalled");
    for i in 0..MESSAGES {
        cluster.submit(p(0), Service::Agreed, format!("m{i}"));
    }
    assert!(cluster.run_until_settled(400_000), "pump stalled");
    let run = cluster.snapshots();
    // P0's backlog exceeds the flow-control window, so some visit stamps
    // a full window and none stamps more (a histogram's `max` is exact).
    let fullest_visit = run
        .iter()
        .filter_map(|p| p.hists.get(names::STAMPED_PER_VISIT))
        .map(|h| h.max)
        .max();
    assert_eq!(
        fullest_visit,
        Some(EvsParams::default().max_per_visit as u64)
    );
    // Only the originator observes its own messages' delivery latency.
    let latency = &run[0].hists[names::DELIVERY_LATENCY_AGREED];
    assert_eq!(latency.count, MESSAGES);
    assert!(latency.p50 > 0 && latency.p99 <= latency.max);
}

#[test]
fn live_run_produces_populated_report() {
    // The same scenario over real threads.
    let net = Cluster::in_memory(3, true);
    assert!(
        net.wait_until(Duration::from_secs(20), |node: &EvsProcess<Payload>| {
            node.is_settled() && node.current_config().members.len() == 3
        }),
        "live group must converge"
    );
    net.invoke(p(0), |node, ctx| {
        node.submit(ctx, Service::Safe, b"safe".into())
    });
    net.invoke(p(0), |node, ctx| {
        node.submit(ctx, Service::Agreed, b"agreed".into())
    });
    assert!(
        net.wait_until(Duration::from_secs(20), |node: &EvsProcess<Payload>| {
            node.deliveries()
                .iter()
                .filter(|d| d.payload().is_some())
                .count()
                >= 2
        }),
        "both messages delivered on every thread"
    );
    let handles = net.telemetry_handles();
    let run = net.snapshots();
    let trace = Trace::new(net.shutdown());
    assert_evs_with_telemetry(&trace, &handles);
    assert_populated(&run, "live");
}

#[test]
fn forced_violation_dumps_the_flight_recorder() {
    // A transitional configuration with no preceding regular one breaks
    // the checker's identity layer.
    let bogus = Configuration::new(ConfigId::transitional(3, p(0)), vec![p(0)]);
    let trace = Trace::new(vec![vec![(
        evs::sim::SimTime::from_ticks(10),
        EvsEvent::DeliverConf(bogus),
    )]]);
    // A telemetry handle with some recorded history.
    let telemetry = Telemetry::enabled(0);
    telemetry.record(
        7,
        TelemetryEvent::TokenRotated {
            epoch: 3,
            rotations: 1,
        },
    );
    let failure =
        check_all_with_telemetry(&trace, [&telemetry]).expect_err("bogus trace must be rejected");
    assert!(!failure.violations.is_empty());
    let rendered = failure.to_string();
    assert!(
        rendered.contains("flight recorder"),
        "dump section missing: {rendered}"
    );
    assert!(
        rendered.contains("process 0") && rendered.contains("[t=7]"),
        "recorded event missing: {rendered}"
    );
    // Detached handles contribute nothing.
    let detached = Telemetry::disabled();
    let failure = check_all_with_telemetry(&trace, [&detached]).expect_err("still rejected");
    assert!(failure.dumps.is_empty());
    assert!(failure.to_string().contains("telemetry detached"));
}

#[test]
fn random_schedule_counters_agree_with_the_trace() {
    // A seeded random schedule of partitions, merges, crashes, recoveries
    // and message bursts; after quiescing, the counters must agree with
    // the specification checker's view of the same execution.
    const N: usize = 4;
    let seed = 0xC0FFEE;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cluster = EvsCluster::<String>::builder(N)
        .seed(seed)
        .telemetry(true)
        .build();
    assert!(cluster.run_until_settled(400_000), "formation stalled");
    let mut down = [false; N];
    let mut msg = 0u32;
    for _ in 0..10 {
        match rng.gen_range(0..6) {
            0 => {
                let mut groups: Vec<Vec<ProcessId>> = vec![Vec::new(); 2];
                for i in 0..N {
                    groups[rng.gen_range(0..2)].push(p(i as u32));
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
                cluster.crash(p(v as u32));
                down[v] = true;
            }
            3 => {
                let v = rng.gen_range(0..N);
                cluster.recover(p(v as u32));
                down[v] = false;
            }
            4 => {
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..N);
                    if !down[at] {
                        msg += 1;
                        cluster.submit(p(at as u32), Service::Safe, format!("m{msg}"));
                    }
                }
            }
            _ => cluster.run_for(rng.gen_range(200..2_000)),
        }
    }
    cluster.merge_all();
    for i in 0..N {
        cluster.recover(p(i as u32));
    }
    assert!(cluster.run_until_settled(3_000_000), "failed to quiesce");
    check_all_with_telemetry(&cluster.trace(), &cluster.telemetry_handles()).unwrap();

    let trace = cluster.trace();
    let run = cluster.snapshots();

    // Every recovery entered was exited: the run is quiescent.
    for proc in &run {
        assert_eq!(
            proc.counters.get("recovery_steps_entered"),
            proc.counters.get("recovery_steps_exited"),
            "P{}: unbalanced recovery steps",
            proc.pid
        );
    }
    // The engine's counters and the checker's trace describe the same run,
    // process by process: each counter counts one kind of trace entry.
    for proc in &run {
        let log = trace.of(p(proc.pid));
        let count =
            |kind: fn(&EvsEvent) -> bool| log.iter().filter(|(_, e)| kind(e)).count() as u64;
        let counter = |name| proc.counters.get(name).copied().unwrap_or(0);
        assert_eq!(
            counter("messages_sent"),
            count(|e| matches!(e, EvsEvent::Send { .. })),
            "P{}: messages_sent",
            proc.pid
        );
        assert_eq!(
            counter("messages_delivered"),
            count(|e| matches!(e, EvsEvent::Deliver { .. })),
            "P{}: messages_delivered",
            proc.pid
        );
        assert_eq!(
            counter("configs_delivered"),
            count(|e| matches!(e, EvsEvent::DeliverConf(_))),
            "P{}: configs_delivered",
            proc.pid
        );
    }
    assert_eq!(run.len(), N, "every process reported");
    assert!(
        total(&run, "configs_delivered") > N as u64,
        "the schedule reconfigured"
    );
    assert!(total(&run, "delivered_safe") <= total(&run, "messages_delivered"));
    assert!(total(&run, "token_rotations") > 0);
}

#[test]
fn detached_cluster_reports_nothing() {
    // Telemetry off (the default): same API, no snapshots — this is the
    // configuration the benchmarks time.
    let mut cluster = EvsCluster::<String>::builder(2).seed(1).build();
    assert!(cluster.run_until_settled(400_000));
    cluster.submit(p(0), Service::Safe, "quiet".into());
    cluster.run_for(5_000);
    for t in cluster.telemetry_handles() {
        assert!(!t.is_enabled());
    }
    assert!(cluster.snapshots().is_empty());
    check_all_with_telemetry(&cluster.trace(), &cluster.telemetry_handles()).unwrap();
}
