//! Property-based testing of the client path: whatever the timing of a
//! broker kill — before, during or after its ops' batches reach the
//! group, with or without a simultaneous daemon crash — the reconnect's
//! resubmission must be *redelivery-safe*: every accepted client op is
//! applied at most once per daemon, replied exactly once, and the daemon
//! group's trace still satisfies every EVS specification.
//!
//! This is the satellite the broker's dedup ledger exists for. The
//! driver keeps its application record *outside* the ledger under test
//! ([`BrokerCluster::duplicate_applications`]), so these properties hold
//! force even against a ledger bug — the planted `broker-mutation`
//! fault fails exactly these assertions.

// needless_update: the vendored ProptestConfig stub has only the fields the
// config block sets, but the `..default()` idiom is what real proptest needs.
#![allow(clippy::needless_update)]

use evs::broker::{BrokerCluster, BrokerClusterConfig, SubmitOutcome};
use evs::core::Payload;
use evs::inspect::check_all_with_telemetry;
use evs::sim::ProcessId;
use proptest::prelude::*;
use std::collections::HashSet;

const DAEMONS: usize = 3;
const BROKERS: usize = 2;

fn cluster(seed: u64) -> BrokerCluster {
    let mut bc = BrokerCluster::new(BrokerClusterConfig {
        daemons: DAEMONS,
        brokers: BROKERS,
        seed,
        ..BrokerClusterConfig::default()
    });
    assert!(bc.form(600_000), "formation stalled (seed {seed})");
    bc
}

/// Submits one op per client, round-robin across brokers, returning the
/// accepted `(client, seq)` pairs. A dead broker backpressures; that op
/// simply doesn't join the expected set (the client would retry).
fn submit_wave(bc: &mut BrokerCluster, clients: u64, tag: u8) -> Vec<(u64, u64)> {
    let mut accepted = Vec::new();
    for client in 0..clients {
        let b = (client % BROKERS as u64) as usize;
        let op = Payload::from(vec![tag, client as u8, 0x5A]);
        if let SubmitOutcome::Accepted { seq } = bc.submit(b, client, op) {
            accepted.push((client, seq));
        }
    }
    accepted
}

/// Pumps until every op in `expected` has a routed reply (or panics on a
/// stall), then verifies the exactly-once contract and conformance.
fn drain_and_verify(mut bc: BrokerCluster, expected: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let mut spent = 0u64;
    while bc.replies().len() < expected.len() {
        prop_assert!(
            spent < 3_000_000,
            "drain stalled: {}/{} replies",
            bc.replies().len(),
            expected.len()
        );
        bc.pump(8_192);
        spent += 8_192;
    }
    // Exactly once on the apply side: no daemon's ledger let an op
    // through twice, and no reply was routed for a never-applied op.
    prop_assert!(
        bc.duplicate_applications().is_empty(),
        "duplicate applications: {:?}",
        bc.duplicate_applications()
    );
    prop_assert!(bc.acked_never_applied().is_empty());
    // Exactly once on the reply side: every accepted op replied, none
    // twice (reattachment rescans history; acks must stay idempotent).
    let mut seen = HashSet::new();
    for r in bc.replies() {
        prop_assert!(
            seen.insert((r.client, r.seq)),
            "op ({}, {}) replied twice",
            r.client,
            r.seq
        );
    }
    let want: HashSet<(u64, u64)> = expected.iter().copied().collect();
    prop_assert_eq!(seen, want, "replied set != accepted set");
    // The daemon group itself still satisfies every specification.
    bc.cluster_mut().run_until_settled(2_000_000);
    if let Err(f) = check_all_with_telemetry(&bc.trace(), &bc.daemon_telemetry()) {
        return Err(TestCaseError::fail(format!("conformance: {f:?}")));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 64,
        ..ProptestConfig::default()
    })]

    /// Kill broker 0 at an arbitrary point between submission and
    /// delivery, reconnect it at an arbitrary later point, and submit a
    /// second wave after the reconnect: every accepted op — including
    /// every op the reconnect resubmitted — is applied at most once per
    /// daemon and replied exactly once.
    #[test]
    fn ops_survive_broker_reconnect_exactly_once(
        seed in 0..200u64,
        clients in 1..24u64,
        kill_after in 0..4_000u64,
        gap in 64..6_000u64,
    ) {
        let mut bc = cluster(seed);
        let mut expected = submit_wave(&mut bc, clients, 1);
        // The kill lands anywhere in the pipeline: ops still pending,
        // batches in flight, or deliveries already routed.
        bc.pump(kill_after);
        bc.kill_broker(0);
        bc.pump(gap);
        prop_assert!(bc.reconnect_broker(0), "a daemon is always alive here");
        expected.extend(submit_wave(&mut bc, clients, 2));
        drain_and_verify(bc, &expected)?;
    }

    /// Same property when the broker's *daemon* dies with it (the
    /// reconnect lands on a survivor) and later recovers: the overlap of
    /// resubmission and the recovered daemon's rejoin changes nothing.
    #[test]
    fn ops_survive_attached_daemon_crash_exactly_once(
        seed in 0..200u64,
        clients in 1..16u64,
        kill_after in 0..3_000u64,
        recover_after in 64..4_000u64,
    ) {
        let mut bc = cluster(seed);
        let mut expected = submit_wave(&mut bc, clients, 3);
        bc.pump(kill_after);
        // Broker 0 is attached to daemon 0; take both down at once.
        bc.crash(ProcessId::new(0));
        bc.kill_broker(0);
        bc.pump(recover_after);
        prop_assert!(bc.reconnect_broker(0));
        bc.recover(ProcessId::new(0));
        expected.extend(submit_wave(&mut bc, clients, 4));
        drain_and_verify(bc, &expected)?;
    }
}
