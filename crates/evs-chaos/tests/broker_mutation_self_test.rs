//! Self-test of the chaos pipeline against a deliberately broken broker
//! dedup ledger.
//!
//! Built only with `--features broker-mutation`, which makes
//! `evs-broker`'s [`OpLedger`] skip its floor check: a client op whose
//! sequence number was already applied and compacted below the floor is
//! applied *again*. The bug is invisible in fault-free runs — EVS itself
//! delivers every batch exactly once — and only manifests when a broker
//! dies with delivered-but-unacked ops and its reconnect resubmits them:
//! the replay that the ledger must absorb, and doesn't.
//!
//! The test proves the whole pipeline on that real client-path bug: the
//! generator (with [`FaultMix::broker_chaos`]) finds a schedule that
//! triggers it, the broker orchestrator's exactly-once oracle reports it
//! as `broker-dedup`, the shrinker reduces it to a handful of steps, and
//! the saved artifact replays to the same violation. Run via `ci.sh` as:
//!
//! ```text
//! cargo test -p evs-chaos --features broker-mutation --test broker_mutation_self_test
//! ```
//!
//! (Only this integration test runs under the feature; `evs-broker`'s own
//! dedup tests would — correctly — fail against the mutated ledger.)

#![cfg(feature = "broker-mutation")]

use evs_chaos::{
    Campaign, CampaignConfig, FaultMix, FaultPlan, GenConfig, Orchestrator, ScenarioGen, Shrinker,
};

/// Base seed for the hunt. The mix is [`FaultMix::broker_chaos`]; with
/// it, the seeds starting here reach a failing schedule within a few
/// hundred iterations (the test only assumes *some* seed in the window
/// fails, so generator evolution moves the seed without breaking the
/// test).
const BASE_SEED: u64 = 5_000;
const ITERATIONS: u64 = 2_000;

fn broker_campaign() -> Campaign {
    let cfg = GenConfig {
        mix: FaultMix::broker_chaos(),
        ..GenConfig::default()
    };
    Campaign::new(
        ScenarioGen::new(cfg),
        Orchestrator::detached(),
        Shrinker::default(),
        CampaignConfig::default(),
    )
}

#[test]
fn pipeline_catches_shrinks_and_replays_the_planted_dedup_bug() {
    assert!(
        evs_chaos::broker_mutation_active(),
        "test requires the broker-mutation feature"
    );
    assert!(
        !evs_chaos::mutation_active(),
        "the engine itself must be correct: only the ledger is mutated"
    );
    let campaign = broker_campaign();
    let (stats, found) = campaign.run(BASE_SEED, ITERATIONS);
    let ce = found.first().unwrap_or_else(|| {
        panic!("mutated ledger survived {} schedules", stats.runs);
    });

    // The violation is the planted one: a reconnect replay applied twice.
    assert!(
        ce.failure.specs.contains(&"broker-dedup".to_string()),
        "expected broker-dedup among {:?}",
        ce.failure.specs
    );
    assert!(
        ce.original.has_broker_steps(),
        "only broker plans exercise the ledger"
    );

    // Acceptance: the minimized plan is genuinely small and still a
    // broker plan (dropping every broker step would lose the failure).
    assert!(
        ce.shrunk.steps.len() <= 8,
        "shrunk plan still has {} steps:\n{}",
        ce.shrunk.steps.len(),
        ce.shrunk.to_text()
    );
    assert!(ce.shrunk.steps.len() <= ce.original.steps.len());
    assert!(ce.shrunk.has_broker_steps());

    // The artifact replays from disk to the same target violation.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("evs-broker-selftest-{}.txt", ce.seed));
    std::fs::write(&path, ce.artifact()).expect("write artifact");
    let text = std::fs::read_to_string(&path).expect("read artifact back");
    let replayed = FaultPlan::from_text(&text).expect("artifact parses");
    assert_eq!(replayed, ce.shrunk, "artifact is the shrunk plan");
    let outcome = Orchestrator::detached().run_sim(&replayed);
    let failure = outcome.failure.expect("replay reproduces the violation");
    assert!(
        failure.specs.contains(&ce.target_spec),
        "replay violates {:?}, expected {}",
        failure.specs,
        ce.target_spec
    );
    let _ = std::fs::remove_file(&path);

    // Telemetry recorded the campaign: runs, the violation, the shrink.
    let counters = campaign.snapshot().counters;
    assert!(counters["chaos_runs"] >= 1);
    assert_eq!(counters["chaos_violations"], 1);
    assert_eq!(counters["chaos_shrinks"], 1);
}

#[test]
fn hunting_the_dedup_bug_is_deterministic() {
    let a = broker_campaign().run(BASE_SEED, ITERATIONS);
    let b = broker_campaign().run(BASE_SEED, ITERATIONS);
    assert_eq!(a.0, b.0, "stats must match across identical hunts");
    let (ca, cb) = (a.1.first().expect("found"), b.1.first().expect("found"));
    assert_eq!(ca.seed, cb.seed);
    assert_eq!(ca.shrunk, cb.shrunk, "shrinking is deterministic");
    assert_eq!(ca.shrink_checks, cb.shrink_checks);
    assert_eq!(ca.failure.specs, cb.failure.specs);
}
