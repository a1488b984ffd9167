//! The one worker loop, end to end: the same scripted scenario on the
//! in-memory medium and on real loopback UDP, and the crash-surviving
//! paths (kill then recover over the in-memory log, drop then reopen over
//! an on-disk one), every run checked against the paper's specifications.

use evs_core::{checker, EvsEvent, EvsParams, EvsProcess, Payload, Service, Trace};
use evs_runtime::{Cluster, MemDriver, ProcessTrace, Worker};
use evs_sim::ProcessId;
use evs_store::FileStorage;
use evs_telemetry::{names, Phase, RunReport, Telemetry};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(30);

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn settled_with(n: usize) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node| node.is_settled() && node.current_config().members.len() == n
}

fn delivered(count: usize) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node| node.deliveries().iter().filter_map(|d| d.payload()).count() >= count
}

fn submit(net: &Cluster, at: u32, service: Service, text: String) {
    net.invoke(p(at), move |node, ctx| {
        node.submit(ctx, service, Payload::from(text.into_bytes()))
    });
}

/// Spec 1.4, stated directly: no process ever sent under a reused id.
fn assert_no_message_id_reused(trace: &[ProcessTrace]) {
    let mut seen = BTreeSet::new();
    for (_, event) in trace.iter().flatten() {
        if let EvsEvent::Send { id, .. } = event {
            assert!(seen.insert(*id), "message id {id:?} sent twice");
        }
    }
}

/// Form n=3, 32 agreed + 8 safe, a 2/1 partition with traffic on both
/// sides, merge.
fn scripted_scenario(net: Cluster) {
    assert!(net.wait_until(WAIT, settled_with(3)), "formation");
    for k in 0..40u32 {
        let service = if k % 5 == 4 {
            Service::Safe
        } else {
            Service::Agreed
        };
        submit(&net, k % 3, service, format!("m{k}"));
    }
    assert!(
        net.wait_until(WAIT, delivered(40)),
        "40 delivered everywhere"
    );

    net.faults().partition(&[vec![p(0), p(1)], vec![p(2)]]);
    assert!(net.wait_until_on(&[p(0), p(1)], WAIT, settled_with(2)));
    assert!(net.wait_until_on(&[p(2)], WAIT, settled_with(1)));
    submit(&net, 0, Service::Safe, "majority".into());
    submit(&net, 2, Service::Safe, "minority".into());
    assert!(
        net.wait_until(WAIT, delivered(41)),
        "each side delivers its own"
    );

    net.faults().merge_all();
    assert!(net.wait_until(WAIT, settled_with(3)), "merge");

    // The loaded run never leaned on the park backstop and never met a
    // datagram the medium could not carry.
    let report = RunReport::collect(&net.telemetry_handles());
    assert!(report.total(names::TOKEN_ROTATIONS) > 0);
    assert_eq!(report.total(names::PARK_BACKSTOP_FIRED), 0);
    assert_eq!(report.total(names::OVERSIZED_DATAGRAMS_DROPPED), 0);
    checker::assert_evs(&Trace::new(net.shutdown()));
}

#[test]
fn scripted_scenario_holds_on_the_in_memory_medium() {
    scripted_scenario(Cluster::in_memory(3, true));
}

#[test]
fn scripted_scenario_holds_on_loopback_udp() {
    scripted_scenario(Cluster::udp_loopback(3).expect("bind loopback sockets"));
}

#[test]
fn a_cluster_without_telemetry_stays_detached() {
    let net = Cluster::in_memory(2, false);
    assert!(net.wait_until(WAIT, settled_with(2)));
    assert!(net.telemetry_handles().iter().all(|t| !t.is_enabled()));
    assert!(RunReport::collect(&net.telemetry_handles()).is_empty());
    net.shutdown();
}

#[test]
fn kill_then_recover_never_reuses_a_message_id() {
    let net = Cluster::in_memory(3, false);
    assert!(net.wait_until(WAIT, settled_with(3)), "formation");
    for k in 0..5 {
        submit(&net, 1, Service::Safe, format!("pre-{k}"));
    }
    assert!(net.wait_until(WAIT, delivered(5)));
    // No farewell callback: what the engine journaled is all there is.
    net.kill(p(1));
    assert!(net.wait_until_on(&[p(0), p(2)], WAIT, settled_with(2)));
    net.recover(p(1));
    assert!(net.wait_until(WAIT, settled_with(3)), "rejoin");
    for k in 0..5 {
        submit(&net, 1, Service::Safe, format!("post-{k}"));
    }
    assert!(net.wait_until_on(&[p(0), p(2)], WAIT, delivered(10)));
    let trace = net.shutdown();
    assert!(
        trace[1]
            .iter()
            .any(|(_, e)| matches!(e, EvsEvent::Fail { .. })),
        "the log supplied the fail the kill swallowed"
    );
    assert_no_message_id_reused(&trace);
    checker::assert_evs(&Trace::new(trace));
}

/// Runs a one-member worker over the WAL in `dir` on virtual ticks from
/// `start`: form, send `text` safe, deliver it. Returns the trace and the
/// last tick, and drops the worker with no farewell.
fn one_incarnation(dir: &std::path::Path, start: u64, text: &'static str) -> (ProcessTrace, u64) {
    let addr = SocketAddr::from(([127, 0, 0, 1], 20_000));
    let storage = Box::new(FileStorage::open(dir).expect("open WAL"));
    let mut worker = Worker::new(
        p(0),
        EvsProcess::with_storage(p(0), EvsParams::default(), storage),
        Box::new(MemDriver::bind(&Default::default(), addr)),
        vec![addr],
        Telemetry::disabled(),
    );
    let mut now = start;
    worker.start(now).expect("start");
    let mut submitted = false;
    while !delivered(1)(worker.node()) {
        assert!(now < start + 1_000_000, "no progress");
        // Everything due at this tick, then on to the next deadline.
        while worker.step(&|| now, None, &mut Vec::new()).expect("step") > 0 {}
        if worker.node().is_settled() && !submitted {
            submitted = true;
            let payload = Payload::from(text.as_bytes());
            worker
                .dispatch(now, Phase::Dispatch, |node, ctx| {
                    node.submit(ctx, Service::Safe, payload)
                })
                .expect("dispatch");
        } else {
            now = worker
                .next_deadline()
                .expect("a deadline is armed")
                .max(now);
        }
    }
    (worker.into_trace(), now)
}

#[test]
fn drop_then_reopen_over_a_file_wal_never_reuses_a_message_id() {
    let dir = std::env::temp_dir().join(format!("evs-runtime-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut life, end) = one_incarnation(&dir, 0, "first life");
    let (second, _) = one_incarnation(&dir, end + 1, "second life");
    life.extend(second);
    let trace = vec![life];
    assert_no_message_id_reused(&trace);
    checker::assert_evs(&Trace::new(trace));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_datagram_too_large_for_udp_is_dropped_and_counted_not_fatal() {
    let net = Cluster::udp_loopback(2).expect("bind loopback sockets");
    assert!(net.wait_until(WAIT, settled_with(2)), "formation");
    // One frame past the UDP ceiling: `sendmmsg` would refuse the whole
    // batch with EMSGSIZE.
    net.invoke(p(0), |node, ctx| {
        let big = Payload::from(vec![0xAB; evs_net::MAX_DATAGRAM + 1]);
        node.submit(ctx, Service::Agreed, big)
    });
    let total = |name| RunReport::collect(&net.telemetry_handles()).total(name);
    let give_up = Instant::now() + WAIT;
    while total(names::OVERSIZED_DATAGRAMS_DROPPED) == 0 {
        assert!(Instant::now() < give_up, "the frame was never stamped");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Both workers are still serving: the token keeps rotating, and
    // shutdown reports no I/O error.
    let before = total(names::TOKEN_ROTATIONS);
    while total(names::TOKEN_ROTATIONS) == before {
        assert!(Instant::now() < give_up, "the ring stopped");
        std::thread::sleep(Duration::from_millis(1));
    }
    net.shutdown();
}

#[test]
fn a_park_that_ends_with_no_timer_armed_is_counted() {
    // An engine that was never started has armed nothing: the park below
    // can only end at its cap, which is what the counter exists to show.
    let addr = SocketAddr::from(([127, 0, 0, 1], 20_000));
    let telemetry = Telemetry::enabled(0);
    let mut worker = Worker::new(
        p(0),
        EvsProcess::new(p(0), EvsParams::default()),
        Box::new(MemDriver::bind(&Default::default(), addr)),
        vec![addr],
        telemetry.clone(),
    );
    let cap = Some(Duration::from_millis(2));
    assert_eq!(worker.step(&|| 0, cap, &mut Vec::new()).expect("step"), 0);
    assert_eq!(telemetry.counter(names::PARK_BACKSTOP_FIRED).get(), 1);
    // A poll is not a park, and a crashed worker owes no deadline.
    worker.step(&|| 0, None, &mut Vec::new()).expect("step");
    worker.kill();
    worker.step(&|| 0, cap, &mut Vec::new()).expect("step");
    assert_eq!(telemetry.counter(names::PARK_BACKSTOP_FIRED).get(), 1);
}
