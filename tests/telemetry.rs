//! Cross-layer telemetry integration: the same scenario produces a
//! populated [`RunReport`] under the deterministic simulator and under the
//! threaded driver, counters agree with the specification-checker's view
//! of the trace, and a violation ships the flight recorder with it.

use evs::core::EvsEvent;
use evs::core::{
    checker, Configuration, EvsCluster, EvsParams, EvsProcess, Payload, Service, Trace,
};
use evs::membership::ConfigId;
use evs::runtime::Cluster;
use evs::sim::ProcessId;
use evs::telemetry::{names, RunReport, Telemetry, TelemetryEvent};
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

fn assert_populated(report: &RunReport, label: &str) {
    assert!(!report.is_empty(), "{label}: report has no processes");
    assert!(
        report.total("messages_sent") >= 2,
        "{label}: expected the two submissions, got {}",
        report.total("messages_sent")
    );
    assert!(
        report.total("messages_delivered") >= 2 * 3,
        "{label}: every process delivers both messages"
    );
    assert!(
        report.total("token_rotations") > 0,
        "{label}: the ring rotated"
    );
    assert!(
        report.total("configs_installed") > 0,
        "{label}: membership installed configurations"
    );
    // Both renderings carry the counters.
    let text = report.to_text();
    assert!(text.contains("run report"), "{label}: {text}");
    assert!(text.contains("messages_sent"), "{label}: {text}");
    let json = report.to_json();
    assert!(
        json.starts_with('{') && json.ends_with('}'),
        "{label}: {json}"
    );
    assert!(json.contains("\"messages_sent\""), "{label}: {json}");
    assert!(json.contains("\"totals\""), "{label}: {json}");
}

#[test]
fn sim_run_produces_populated_report() {
    let cluster = sim_scenario();
    let report = cluster.run_report();
    assert_populated(&report, "sim");
    // The trace is conformant, so the dump-aware check passes too.
    cluster.check().unwrap();
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
    let report = cluster.run_report();
    // P0's backlog exceeds the flow-control window, so some visit stamps
    // a full window and none stamps more (a histogram's `max` is exact).
    let fullest_visit = report
        .processes
        .iter()
        .filter_map(|p| p.log_histograms.get(names::STAMPED_PER_VISIT))
        .map(|h| h.max)
        .max();
    assert_eq!(
        fullest_visit,
        Some(EvsParams::default().max_per_visit as u64)
    );
    // Only the originator observes its own messages' delivery latency.
    let latency = &report.processes[0].log_histograms[names::DELIVERY_LATENCY_AGREED];
    assert_eq!(latency.count, MESSAGES);
    assert!(latency.percentile(0.5) > 0 && latency.percentile(0.99) <= latency.max);
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
    let trace = Trace::new(net.shutdown());
    checker::assert_evs_with_telemetry(&trace, &handles);
    let report = RunReport::collect(&handles);
    assert_populated(&report, "live");
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
    let failure = checker::check_all_with_telemetry(&trace, [&telemetry])
        .expect_err("bogus trace must be rejected");
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
    let failure =
        checker::check_all_with_telemetry(&trace, [&detached]).expect_err("still rejected");
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
    cluster.check().unwrap();

    let trace = cluster.trace();
    let report = cluster.run_report();

    // Every recovery entered was exited: the run is quiescent.
    for proc in &report.processes {
        assert_eq!(
            proc.counters.get("recovery_steps_entered"),
            proc.counters.get("recovery_steps_exited"),
            "P{}: unbalanced recovery steps",
            proc.pid
        );
    }
    // The engine's counters and the checker's trace describe the same run.
    let sends = trace
        .iter()
        .filter(|(_, _, e)| matches!(e, EvsEvent::Send { .. }))
        .count() as u64;
    let delivers = trace
        .iter()
        .filter(|(_, _, e)| matches!(e, EvsEvent::Deliver { .. }))
        .count() as u64;
    assert_eq!(report.total("messages_sent"), sends);
    assert_eq!(report.total("messages_delivered"), delivers);
    assert!(report.total("delivered_safe") <= report.total("messages_delivered"));
    assert!(report.total("token_rotations") > 0);
}

#[test]
fn detached_cluster_reports_nothing() {
    // Telemetry off (the default): same API, empty report — this is the
    // configuration the benchmarks time.
    let mut cluster = EvsCluster::<String>::builder(2).seed(1).build();
    assert!(cluster.run_until_settled(400_000));
    cluster.submit(p(0), Service::Safe, "quiet".into());
    cluster.run_for(5_000);
    for t in cluster.telemetry_handles() {
        assert!(!t.is_enabled());
    }
    let report = cluster.run_report();
    assert!(report.is_empty());
    assert_eq!(report.to_json(), "{\"processes\":[],\"totals\":{}}");
    cluster.check().unwrap();
}
