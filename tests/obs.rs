//! Observability-plane integration tests: log-histogram accuracy and
//! merge laws, phase-clock attribution, exposition round-trips, and the
//! `OBS?` scrape protocol over a real UDP socket.
//!
//! The property tests pin the guarantees the obs plane advertises: exact
//! values below 16, ≤12.5% relative quantile error above, monotone
//! percentiles, and a merge that is bit-identical regardless of order —
//! the invariant that lets per-thread histograms be combined without a
//! coordination step.

use evs::core::{EvsProcess, Payload, Service};
use evs::obs::{self, ObsResponder};
use evs::runtime::Cluster;
use evs::sim::ProcessId;
use evs::telemetry::{
    log_bucket_bound, log_bucket_index, names, Exposition, HistStat, LogHistogramSnapshot, Phase,
    PhaseClock, PhaseStat, Telemetry, LOG_BUCKET_COUNT,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// Observes every value into a fresh enabled histogram and snapshots it.
fn snapshot_of(values: &[u64]) -> LogHistogramSnapshot {
    let t = Telemetry::enabled(0);
    let h = t.log_histogram(names::WAL_SYNC_NS);
    for &v in values {
        h.observe(v);
    }
    h.snapshot().expect("enabled histogram snapshots")
}

#[test]
fn log_buckets_are_exact_below_sixteen() {
    for v in 0..16u64 {
        assert_eq!(log_bucket_index(v), v as usize);
        assert_eq!(log_bucket_bound(v as usize), v);
    }
    // The full bucket table is monotone and seam-free: every bucket's
    // bound is strictly above the previous one's.
    let mut prev = 0u64;
    for i in 1..LOG_BUCKET_COUNT {
        let b = log_bucket_bound(i);
        assert!(b > prev, "bucket {i} bound {b} <= previous {prev}");
        prev = b;
    }
}

proptest! {
    #[test]
    fn bucket_bound_error_is_within_an_eighth(v in 0u64..u64::MAX / 2) {
        let bound = log_bucket_bound(log_bucket_index(v));
        prop_assert!(bound >= v, "bound {bound} below value {v}");
        if v >= 16 {
            // Eight sub-buckets per octave: the bucket spans 1/8 of the
            // value's power of two, so the bound overshoots by <12.5%.
            prop_assert!(bound - v <= v / 8 + 1, "bound {bound} too far above {v}");
        } else {
            prop_assert_eq!(bound, v);
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded(values in proptest::collection::vec(0u64..1u64 << 40, 1..200)) {
        let snap = snapshot_of(&values);
        let p50 = snap.percentile(0.50);
        let p90 = snap.percentile(0.90);
        let p99 = snap.percentile(0.99);
        prop_assert!(p50 <= p90 && p90 <= p99, "p50 {p50} p90 {p90} p99 {p99}");
        let max = *values.iter().max().unwrap();
        prop_assert!(p99 <= max, "p99 {p99} above observed max {max}");
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().sum::<u64>());
    }

    #[test]
    fn single_value_reports_exactly_at_every_quantile(v in 0u64..1u64 << 40, q_millis in 0u32..=1000) {
        // The quantile bound clamps to the observed max, so a
        // single-value histogram is exact at every quantile.
        let snap = snapshot_of(&[v]);
        prop_assert_eq!(snap.percentile(q_millis as f64 / 1000.0), v);
    }

    #[test]
    fn exposition_round_trips_exactly(
        pid in 0u32..1000,
        seq in 0u64..1 << 40,
        counter_pairs in proptest::collection::vec((0u32..50, 0u64..u64::MAX), 0..8),
        gauge_pairs in proptest::collection::vec((0u32..50, i64::MIN..i64::MAX), 0..8),
        hist_vals in proptest::collection::vec(0u64..1 << 30, 0..6),
        spacey in 0u32..1000,
    ) {
        let counters: BTreeMap<u32, u64> = counter_pairs.into_iter().collect();
        let gauges: BTreeMap<u32, i64> = gauge_pairs.into_iter().collect();
        let mut expo = Exposition {
            pid,
            seq,
            ..Exposition::default()
        };
        expo.info.insert("role".to_string(), format!("v{spacey} with spaces"));
        expo.info.insert("empty".to_string(), String::new());
        for (k, v) in &counters {
            expo.counters.insert(format!("c{k}"), *v);
        }
        for (k, v) in &gauges {
            expo.gauges.insert(format!("g{k}"), *v);
        }
        for (i, v) in hist_vals.iter().enumerate() {
            expo.hists.insert(
                format!("h{i}"),
                HistStat { count: i as u64, sum: *v, max: *v, p50: *v / 2, p90: *v, p99: *v },
            );
        }
        expo.phases.insert("park".to_string(), PhaseStat { ns: spacey as u64, ppm: 500_000 });
        let reparsed = Exposition::parse(&expo.to_text());
        prop_assert_eq!(reparsed.as_ref(), Ok(&expo));
    }
}

#[test]
fn cross_thread_merge_is_bit_identical_in_any_order() {
    // Four threads each fill their own process-local histogram with a
    // deterministic slice of the load, concurrently.
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let values: Vec<u64> = (0..500).map(|i| (i * 2654435761 + t) % (1 << 35)).collect();
                snapshot_of(&values)
            })
        })
        .collect();
    let snaps: Vec<LogHistogramSnapshot> = handles
        .into_iter()
        .map(|h| h.join().expect("observer thread panicked"))
        .collect();

    let mut forward = LogHistogramSnapshot::default();
    for s in &snaps {
        forward.merge(s);
    }
    let mut reverse = LogHistogramSnapshot::default();
    for s in snaps.iter().rev() {
        reverse.merge(s);
    }
    // Pure integer addition per bucket: associative and commutative, so
    // both merge orders produce the same snapshot, bit for bit.
    assert_eq!(forward, reverse);

    // And both equal the histogram that saw every value directly.
    let all: Vec<u64> = (0..4u64)
        .flat_map(|t| (0..500).map(move |i| (i * 2654435761 + t) % (1 << 35)))
        .collect();
    assert_eq!(forward, snapshot_of(&all));
}

#[test]
fn phase_clock_attribution_covers_the_loop_exactly() {
    let t = Telemetry::enabled(7);
    let mut clock = PhaseClock::new(&t);
    for _ in 0..20 {
        std::thread::sleep(Duration::from_micros(100));
        clock.mark(Phase::Park);
        clock.mark(Phase::Recv);
        clock.mark(Phase::Dispatch);
        clock.mark(Phase::Send);
    }
    let expo = Exposition::from_telemetry(1, &t, []).expect("enabled handle snapshots");
    // The chained-mark design makes attributed time equal the loop gauge
    // (both are set by the same final mark), so coverage is exactly 1.
    let cov = expo.coverage().expect("phase clock ran");
    assert!((0.999..=1.001).contains(&cov), "coverage {cov}");
    let ppm: u64 = expo.phases.values().map(|p| p.ppm).sum();
    assert!(
        ppm > 1_000_000 - Phase::COUNT as u64 && ppm <= 1_000_000,
        "phase fractions sum to {ppm} ppm"
    );
    assert!(expo.phases["park"].ns > expo.phases["dispatch"].ns);
    assert_eq!(expo.counters[names::PHASE_MARKS], 80);
}

/// The phase clock's budget: marks taken × calibrated cost per mark stays
/// under 2% of the loop time the marks attributed, on a loaded live run.
#[test]
fn phase_clock_overhead_is_under_two_percent_of_a_live_loop() {
    const MESSAGES: usize = 32;
    let net = Cluster::in_memory(3, true);
    assert!(
        net.wait_until(Duration::from_secs(30), |node: &EvsProcess<Payload>| {
            node.is_settled() && node.current_config().members.len() == 3
        }),
        "live group must converge"
    );
    for i in 0..MESSAGES as u64 {
        net.invoke(ProcessId::new((i % 3) as u32), move |node, ctx| {
            node.submit(ctx, Service::Agreed, Payload::from(&i.to_le_bytes()))
        });
    }
    assert!(
        net.wait_until(Duration::from_secs(30), |node: &EvsProcess<Payload>| {
            let delivered = node.deliveries().iter().filter(|d| d.payload().is_some());
            delivered.count() >= MESSAGES
        }),
        "every thread delivers the full load"
    );
    let handles = net.telemetry_handles();
    net.shutdown();

    let (mut attributed_ns, mut marks) = (0u64, 0u64);
    for snap in handles.iter().filter_map(Telemetry::snapshot) {
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        attributed_ns += Phase::ALL
            .iter()
            .map(|p| counter(p.counter_name()))
            .sum::<u64>();
        marks += counter(names::PHASE_MARKS);
    }
    assert!(marks > 0, "the live workers ran no phase clock");
    let per_mark_ns = PhaseClock::calibrate(100_000);
    let share = marks as f64 * per_mark_ns / attributed_ns as f64;
    assert!(
        share < 0.02,
        "phase-timer overhead {:.3}% of live loop time ({marks} marks × {per_mark_ns:.0} ns \
         over {:.1} ms attributed) exceeds the 2% budget",
        share * 100.0,
        attributed_ns as f64 / 1e6
    );
}

#[test]
fn responder_answers_scrapes_with_advancing_seq() {
    let t = Telemetry::enabled(3);
    t.counter(names::TOKEN_ROTATIONS).add(42);
    let responder =
        ObsResponder::spawn(t.clone(), || vec![("role".to_string(), "test".to_string())])
            .expect("bind responder");
    let addr = responder.addr();

    let first = obs::scrape(addr, Duration::from_secs(2)).expect("first scrape");
    t.counter(names::TOKEN_ROTATIONS).add(1);
    let second = obs::scrape(addr, Duration::from_secs(2)).expect("second scrape");

    assert_eq!(first.pid, 3);
    assert_eq!(first.info["role"], "test");
    assert_eq!(first.counters[names::TOKEN_ROTATIONS], 42);
    assert_eq!(second.counters[names::TOKEN_ROTATIONS], 43);
    assert!(second.seq > first.seq, "seq must advance per scrape");

    // Round-trip through the wire format is exact.
    assert_eq!(Exposition::parse(&second.to_text()), Ok(second));

    // Once the responder is dropped its socket goes silent.
    drop(responder);
    assert!(obs::scrape(addr, Duration::from_millis(200)).is_err());
}

#[test]
fn query_magic_is_recognized() {
    assert!(obs::is_query(b"OBS?"));
    assert!(!obs::is_query(b"OBS!"));
    assert!(!obs::is_query(b"OB"));
    assert!(!obs::is_query(b""));
}

#[test]
fn endpoints_file_round_trips() {
    let dir = std::env::temp_dir().join(format!("evs-obs-test-{}", std::process::id()));
    let path = dir.join("endpoints.txt");
    let addrs: Vec<std::net::SocketAddr> = vec![
        "127.0.0.1:19001".parse().unwrap(),
        "127.0.0.1:19002".parse().unwrap(),
    ];
    obs::serve::write_endpoints(&path, &addrs).expect("write endpoints");
    assert_eq!(
        obs::serve::read_endpoints(&path).expect("read endpoints"),
        addrs
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scraped cluster exposition drives the dashboard respawn logic: a
/// sequence regression (or changed os_pid) steps the incarnation count
/// and resets the rate baseline.
#[test]
fn top_state_detects_respawn_and_failures() {
    let mut top = obs::TopState::new();
    let mut info = BTreeMap::new();
    info.insert("role".to_string(), "daemon".to_string());
    info.insert("os_pid".to_string(), "100".to_string());
    let mut expo = Exposition {
        pid: 0,
        seq: 5,
        info,
        ..Exposition::default()
    };
    expo.counters.insert(names::TOKEN_ROTATIONS.to_string(), 10);

    top.record("127.0.0.1:9000", 1_000_000, expo.clone());
    expo.seq = 6;
    expo.counters.insert(names::TOKEN_ROTATIONS.to_string(), 20);
    top.record("127.0.0.1:9000", 2_000_000, expo.clone());
    assert_eq!(top.node("127.0.0.1:9000").unwrap().incarnations, 1);

    // Respawn: fresh process restarts its snapshot sequence.
    expo.seq = 1;
    expo.info.insert("os_pid".to_string(), "200".to_string());
    top.record("127.0.0.1:9000", 3_000_000, expo);
    assert_eq!(top.node("127.0.0.1:9000").unwrap().incarnations, 2);

    top.record_failure("127.0.0.1:9001");
    let frame = top.render(3_000_000);
    assert!(frame.contains("127.0.0.1:9000"), "frame:\n{frame}");
    assert!(frame.contains("127.0.0.1:9001"), "frame:\n{frame}");
    assert_eq!(top.live_nodes(), 1);
}
