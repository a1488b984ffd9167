//! Self-test of the chaos pipeline against a deliberately broken engine.
//!
//! Built only with `--features chaos-mutation`, which makes recovery
//! Step 5.c in `evs-core` skip the obligation-set union: transitional
//! members are left out of the obligation set, so Step 6.a discards
//! messages it must retain whenever a recovery happens with a hole in the
//! pooled message store (an ordinal some member has seen ordered but no
//! surviving member holds). That loses a surviving sender's own message —
//! a Spec 3 (self-delivery) violation.
//!
//! The test proves the whole pipeline on that real bug: the generator
//! finds it, the orchestrator's conformance suite reports it, the shrinker
//! reduces it to a handful of steps, and the saved artifact replays to the
//! same violation. Run via `ci.sh` as:
//!
//! ```text
//! cargo test -p evs-chaos --features chaos-mutation --test mutation_self_test
//! ```
//!
//! (Only this integration test runs under the feature; the rest of the
//! workspace's tests would — correctly — fail against a broken protocol.)

#![cfg(feature = "chaos-mutation")]

use evs_chaos::{
    Campaign, CampaignConfig, FaultMix, FaultPlan, GenConfig, Orchestrator, ScenarioGen, Shrinker,
};

/// Base seed for the hunt. The mix is [`FaultMix::hunting`]; with it, the
/// seeds starting here reach a failing schedule within a few hundred
/// iterations (seed 6730 at the time of writing — the test only assumes
/// *some* seed in the window fails, so generator evolution moves the seed
/// without breaking the test; the event-driven scheduler moved it from
/// the pre-PR-10 1031).
const BASE_SEED: u64 = 6_000;
const ITERATIONS: u64 = 2_000;

fn hunting_campaign() -> Campaign {
    let cfg = GenConfig {
        mix: FaultMix::hunting(),
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
fn pipeline_catches_shrinks_and_replays_the_planted_bug() {
    assert!(
        evs_chaos::mutation_active(),
        "test requires the chaos-mutation feature"
    );
    let campaign = hunting_campaign();
    let (stats, found) = campaign.run(BASE_SEED, ITERATIONS);
    let ce = found.first().unwrap_or_else(|| {
        panic!("mutated engine survived {} schedules", stats.runs);
    });

    // The violation is the planted one: a broken obligation set loses
    // messages, which the checker reports as a delivery-property breach.
    assert!(
        !ce.failure.specs.is_empty(),
        "counterexample must name the violated properties"
    );

    // Acceptance: the minimized plan is genuinely small.
    assert!(
        ce.shrunk.steps.len() <= 8,
        "shrunk plan still has {} steps:\n{}",
        ce.shrunk.steps.len(),
        ce.shrunk.to_text()
    );
    assert!(ce.shrunk.steps.len() <= ce.original.steps.len());

    // The artifact replays from disk to the same target violation.
    let dir = std::env::temp_dir();
    let path = dir.join(format!("evs-chaos-selftest-{}.txt", ce.seed));
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
fn hunting_the_bug_is_deterministic() {
    let a = hunting_campaign().run(BASE_SEED, ITERATIONS);
    let b = hunting_campaign().run(BASE_SEED, ITERATIONS);
    assert_eq!(a.0, b.0, "stats must match across identical hunts");
    let (ca, cb) = (a.1.first().expect("found"), b.1.first().expect("found"));
    assert_eq!(ca.seed, cb.seed);
    assert_eq!(ca.shrunk, cb.shrunk, "shrinking is deterministic");
    assert_eq!(ca.shrink_checks, cb.shrink_checks);
    assert_eq!(ca.failure.specs, cb.failure.specs);
}
