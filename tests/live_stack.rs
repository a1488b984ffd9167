//! The full extended-virtual-synchrony stack on real OS threads.
//!
//! Everything else in this repository drives the protocol deterministically;
//! this test runs the *same* `EvsProcess` state machines on an
//! `evs::runtime::Cluster` — real threads, the wire codec over the
//! in-memory medium, real time — and feeds the resulting trace to the same
//! specification checker. The model
//! is supposed to hold for any execution, not just simulated ones; here is
//! a concurrent one.

use evs::core::{checker, EvsProcess, Payload, Service, Trace};
use evs::runtime::Cluster;
use evs::sim::ProcessId;
use std::time::Duration;

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn spawn(n: usize) -> Cluster {
    Cluster::in_memory(n, false)
}

fn settled_with(n: usize) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node: &EvsProcess<Payload>| node.is_settled() && node.current_config().members.len() == n
}

#[test]
fn live_group_forms_and_delivers_safely() {
    let net = spawn(3);
    assert!(
        net.wait_until(Duration::from_secs(20), settled_with(3)),
        "live group must converge"
    );
    net.invoke(p(0), |node, ctx| {
        node.submit(ctx, Service::Safe, b"live-hello".into())
    });
    assert!(
        net.wait_until(Duration::from_secs(20), |node: &EvsProcess<Payload>| {
            node.deliveries()
                .iter()
                .any(|d| d.payload().is_some_and(|p| p.as_slice() == b"live-hello"))
        }),
        "safe message delivered on every thread"
    );
    checker::assert_evs(&Trace::new(net.shutdown()));
}

#[test]
fn live_partition_and_merge_obey_the_model() {
    let net = spawn(4);
    assert!(
        net.wait_until(Duration::from_secs(20), settled_with(4)),
        "formation"
    );
    // Partition 2/2, let both sides reconfigure and work.
    net.faults()
        .partition(&[vec![p(0), p(1)], vec![p(2), p(3)]]);
    assert!(
        net.wait_until(Duration::from_secs(20), settled_with(2)),
        "both components settle at size 2"
    );
    net.invoke(p(0), |node, ctx| {
        node.submit(ctx, Service::Safe, b"left".into())
    });
    net.invoke(p(3), |node, ctx| {
        node.submit(ctx, Service::Safe, b"right".into())
    });
    // Heal.
    net.faults().merge_all();
    assert!(
        net.wait_until(Duration::from_secs(30), settled_with(4)),
        "merge settles"
    );
    checker::assert_evs(&Trace::new(net.shutdown()));
}

#[test]
fn live_crash_and_recovery_obey_the_model() {
    let net = spawn(3);
    assert!(
        net.wait_until(Duration::from_secs(20), settled_with(3)),
        "formation"
    );
    net.invoke(p(1), |node, ctx| {
        node.submit(ctx, Service::Safe, b"pre-crash".into())
    });
    net.crash(p(2));
    // Survivors drop to 2 (the crashed node's state is frozen at size 3,
    // so only poll the survivors).
    assert!(
        net.wait_until_on(&[p(0), p(1)], Duration::from_secs(30), settled_with(2)),
        "survivors reconfigure"
    );
    net.recover(p(2));
    assert!(
        net.wait_until(Duration::from_secs(30), settled_with(3)),
        "recovered node rejoins"
    );
    checker::assert_evs(&Trace::new(net.shutdown()));
}
