//! Integration tests of the chaos pipeline on the *correct* engine:
//! generated plans round-trip through the text artifact, the shrinker
//! honors its contract on arbitrary oracles, and the live threaded driver
//! accepts the same plans as the simulator.
//!
//! The companion `mutation_self_test.rs` (behind the `chaos-mutation`
//! feature) proves the same pipeline against a deliberately broken engine.

// needless_update: the vendored ProptestConfig stub has only the fields the
// config block sets, but the `..default()` idiom is what real proptest needs.
#![allow(clippy::needless_update)]

use evs_chaos::{
    FaultPlan, FaultStep, GenConfig, Orchestrator, ScenarioGen, ShrinkResult, Shrinker,
};
use evs_order::Service;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        max_shrink_iters: 50,
        ..ProptestConfig::default()
    })]

    /// Every generated plan validates and survives the text round-trip
    /// unchanged — the repro artifact is faithful for the whole reachable
    /// plan space.
    #[test]
    fn generated_plans_round_trip(seed in proptest::arbitrary::any::<u64>()) {
        let plan = ScenarioGen::new(GenConfig::default()).plan(seed);
        prop_assert!(plan.validate().is_ok());
        let replayed = FaultPlan::from_text(&plan.to_text()).expect("rendered plan parses");
        prop_assert_eq!(replayed, plan);
    }

    /// Shrinker contract on arbitrary failure predicates: the result still
    /// fails the oracle, never grows, and shrinking is deterministic.
    #[test]
    fn shrinker_contract_holds(seed in proptest::arbitrary::any::<u64>(), salt in 0..4u64) {
        let plan = ScenarioGen::new(GenConfig::default()).plan(seed);
        // A synthetic, deterministic notion of "still failing": the plan
        // retains a step whose discriminant hashes into the salted class.
        // Structurally arbitrary, like a real spec violation, but cheap.
        let fails = move |p: &FaultPlan| {
            p.steps
                .iter()
                .any(|s| (kind_of(s) as u64 + salt).is_multiple_of(3))
        };
        if !fails(&plan) {
            return Ok(()); // shrinker contract only covers failing inputs
        }
        let ShrinkResult { plan: shrunk, checks, .. } = Shrinker::default().shrink(&plan, fails);
        prop_assert!(fails(&shrunk), "shrunk plan must still fail");
        prop_assert!(shrunk.steps.len() <= plan.steps.len());
        prop_assert!(checks <= Shrinker::default().max_checks);
        let again = Shrinker::default().shrink(&plan, fails);
        prop_assert_eq!(again.plan, shrunk, "shrinking must be deterministic");
        prop_assert_eq!(again.checks, checks);
    }
}

fn kind_of(step: &FaultStep) -> u8 {
    evs_chaos::STEP_KINDS
        .iter()
        .position(|k| *k == step.kind_name())
        .expect("every step kind is listed in STEP_KINDS") as u8
}

/// A plan using an engine-level oracle shrinks to something the engine
/// still rejects — the loop the campaign runs, minus the generator.
#[test]
fn shrinking_against_the_simulator_keeps_the_run_failing() {
    // The oracle treats "any process crashed during the schedule" as the
    // failure; the simulator executes every candidate for real, so this
    // exercises the shrink loop end to end without needing a protocol bug.
    let plan = FaultPlan {
        n: 3,
        seed: 77,
        steps: vec![
            FaultStep::Run(300),
            FaultStep::Mcast {
                from: 0,
                count: 2,
                service: Service::Agreed,
            },
            FaultStep::Crash(1),
            FaultStep::Run(500),
            FaultStep::Merge,
        ],
    };
    let orch = Orchestrator::detached();
    let fails = move |p: &FaultPlan| {
        let (cluster, settled) = orch.execute(p);
        settled
            && cluster.trace().events.iter().flatten().count() > 0
            && p.steps.iter().any(|s| matches!(s, FaultStep::Crash(_)))
    };
    assert!(fails(&plan));
    let result = Shrinker::default().shrink(&plan, &fails);
    assert!(fails(&result.plan));
    // The relabel pass remaps the surviving crash onto the lowest id.
    assert_eq!(result.plan.steps, vec![FaultStep::Crash(0)]);
}

/// The live threaded driver runs a plan and passes the same conformance
/// suite. Kept tiny: real threads, real time.
#[test]
fn live_driver_runs_a_plan_conformantly() {
    let plan = FaultPlan {
        n: 3,
        seed: 5,
        steps: vec![
            FaultStep::Mcast {
                from: 0,
                count: 2,
                service: Service::Safe,
            },
            FaultStep::Run(2_000), // 200ms of wall clock
            FaultStep::Crash(2),
            FaultStep::Mcast {
                from: 1,
                count: 1,
                service: Service::Agreed,
            },
            FaultStep::Run(2_000),
        ],
    };
    assert!(plan.live_compatible());
    let outcome = Orchestrator::default()
        .run_live(&plan)
        .expect("plan is live-compatible");
    assert!(outcome.settled, "live cluster failed to settle");
    assert!(!outcome.failed(), "{:?}", outcome.failure);
    assert!(outcome.report.total("messages_sent") >= 2);
}
