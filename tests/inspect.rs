//! Cross-process run analysis (`evs::inspect`) over real executions: the
//! merged timeline is independent of dump ingestion order, lifecycle
//! spans derived from a live cluster match what the run actually did, a
//! run's post-mortem document loses nothing the analysis reads, and the
//! run's telemetry snapshots read back exactly through the one metrics
//! codec.

use evs::core::trace_io::{format_postmortem, parse_postmortem};
use evs::core::{EvsCluster, Service};
use evs::inspect::{collect_dumps, InspectReport, Timeline};
use evs::sim::ProcessId;
use evs::telemetry::{counter_totals, names, Exposition};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

/// Three processes form a group; P0 multicasts one safe and one agreed
/// message; a partition and merge force a recovery with traffic in flight.
fn scenario() -> EvsCluster<String> {
    let mut cluster = EvsCluster::<String>::builder(3)
        .seed(0x1A5)
        .telemetry(true)
        .build();
    assert!(cluster.run_until_settled(400_000), "formation stalled");
    cluster.submit(p(0), Service::Safe, "safe".into());
    cluster.submit(p(0), Service::Agreed, "agreed".into());
    cluster.run_for(10_000);
    cluster.partition(&[&[p(0), p(1)], &[p(2)]]);
    assert!(cluster.run_until_settled(400_000), "partition stalled");
    cluster.submit(p(1), Service::Safe, "minority-era".into());
    cluster.run_for(10_000);
    cluster.merge_all();
    assert!(cluster.run_until_settled(400_000), "merge stalled");
    cluster
}

#[test]
fn timeline_merge_is_ingestion_order_independent() {
    let cluster = scenario();
    let mut dumps = collect_dumps(&cluster.telemetry_handles());
    assert!(dumps.iter().all(|(_, d)| !d.is_empty()));
    let forward = Timeline::merge(&dumps);
    dumps.reverse();
    let reversed = Timeline::merge(&dumps);
    dumps.swap(0, 1);
    let shuffled = Timeline::merge(&dumps);
    assert_eq!(forward.entries, reversed.entries);
    assert_eq!(forward.entries, shuffled.entries);
    assert_eq!(forward.to_text(None), shuffled.to_text(None));
    // Within one process the merged order preserves recording order.
    for pid in 0..3 {
        let indices: Vec<u32> = forward
            .entries
            .iter()
            .filter(|e| e.pid == pid)
            .map(|e| e.index)
            .collect();
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "P{pid}: {indices:?}"
        );
    }
}

#[test]
fn lifecycle_spans_match_the_run() {
    let cluster = scenario();
    let report = InspectReport::from_handles(&cluster.trace(), &cluster.telemetry_handles());
    assert!(!report.is_empty());
    // Every submission grew into a span that originated, got stamped by
    // the token, and was delivered at least once.
    assert!(report.messages.len() >= 3, "{:#?}", report.messages);
    for m in &report.messages {
        assert!(m.originated_at.is_some(), "{m:?}");
        assert!(m.stamped_at.is_some(), "{m:?}");
        assert!(m.deliveries > 0, "{m:?}");
        assert!(m.originated_at <= m.stamped_at, "{m:?}");
        assert!(m.stamped_at <= m.completed_at, "{m:?}");
    }
    // The partition/merge cycle left at least one configuration span with
    // the full §3 recovery-step breakdown.
    let recovered: Vec<_> = report
        .configs
        .iter()
        .filter(|c| c.recovery_entered_at.is_some() && !c.steps.is_empty())
        .collect();
    assert!(!recovered.is_empty(), "{:#?}", report.configs);
    for c in &recovered {
        for s in &c.steps {
            assert!((2..=6).contains(&s.step), "{s:?}");
            assert!(s.first_at <= s.last_at, "{s:?}");
        }
    }
    // The rendered report carries all three sections.
    let text = report.to_text(Some(40));
    assert!(text.contains("merged causal timeline"), "{text}");
    assert!(text.contains("message lifecycle spans"), "{text}");
    assert!(text.contains("recovery (§3)"), "{text}");
}

/// Written and parsed back, a run's post-mortem document — its trace and
/// every flight dump as `trace_io` lines — yields the same report.
#[test]
fn a_post_mortem_document_is_lossless() {
    let cluster = scenario();
    let trace = cluster.trace();
    let dumps = collect_dumps(&cluster.telemetry_handles());
    let report = InspectReport::analyze(&trace, &dumps);
    assert!(!report.messages.is_empty() && !report.configs.is_empty());
    let (back, back_dumps) =
        parse_postmortem(&format_postmortem(&trace, &dumps)).expect("the post-mortem parses back");
    assert_eq!(back.events, trace.events);
    assert_eq!(back_dumps, dumps);
    assert_eq!(InspectReport::analyze(&back, &back_dumps), report);
}

#[test]
fn run_snapshots_read_back_exactly() {
    let cluster = scenario();
    let run = cluster.snapshots();
    assert_eq!(run.len(), 3);
    let back: Vec<Exposition> = run
        .iter()
        .map(|e| Exposition::parse(&e.to_text()).expect("a snapshot's text parses"))
        .collect();
    assert_eq!(back, run);
    // Totals summed over the parsed text agree with the live registries:
    // the contract the bench-diff gate relies on.
    let delivered: u64 = cluster
        .telemetry_handles()
        .iter()
        .map(|t| t.counter(names::MESSAGES_DELIVERED).get())
        .sum();
    assert_eq!(counter_totals(&back)[names::MESSAGES_DELIVERED], delivered);
}
