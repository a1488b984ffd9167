//! Property-based testing: random fault schedules (partitions, merges,
//! crashes, recoveries, loss/latency changes, message bursts at arbitrary
//! offsets) must always produce executions satisfying every EVS
//! specification, a lawful primary history, and a VS-acceptable filtered
//! run.
//!
//! The schedules are [`evs::chaos::FaultPlan`]s — the same typed DSL the
//! chaos subsystem generates, shrinks and serializes — executed by the
//! chaos [`Orchestrator`] against the full conformance suite. Proptest
//! explores the plan space structurally here; the vendored proptest does
//! not shrink, so a failure reports the case as generated (see
//! `vendor/README.md`). `examples/chaos.rs` explores the space by seed at
//! much higher volume and shrinks what it finds. Any failing plan this test prints can be saved with
//! [`FaultPlan::to_text`] and replayed via `chaos --replay`.

// needless_update: the vendored ProptestConfig stub has only the fields the
// config block sets, but the `..default()` idiom is what real proptest needs.
#![allow(clippy::needless_update)]

use evs::chaos::{FaultPlan, FaultStep, Orchestrator};
use evs::core::Service;
use proptest::prelude::*;

fn step_strategy(n: u8) -> impl Strategy<Value = FaultStep> {
    prop_oneof![
        proptest::collection::vec(0..3u8, n as usize).prop_map(FaultStep::Split),
        Just(FaultStep::Merge),
        (0..n).prop_map(FaultStep::Crash),
        (0..n).prop_map(FaultStep::Recover),
        (1..=50u8).prop_map(FaultStep::DropPct),
        (1..=5u64, 0..=10u64).prop_map(|(lo, d)| FaultStep::Delay(lo, lo + d)),
        (0..n, 1..4u8, 0..2u8).prop_map(|(from, count, s)| FaultStep::Mcast {
            from,
            count,
            service: if s == 0 {
                Service::Agreed
            } else {
                Service::Safe
            },
        }),
        (100..2000u32).prop_map(FaultStep::Run),
    ]
}

fn plan_strategy(n: u8, max_steps: usize, seed_bound: u64) -> impl Strategy<Value = FaultPlan> {
    (
        0..seed_bound,
        proptest::collection::vec(step_strategy(n), 1..max_steps),
    )
        .prop_map(move |(seed, steps)| FaultPlan { n, seed, steps })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    /// The full property suite holds on arbitrary fault schedules.
    #[test]
    fn evs_holds_under_random_schedules(plan in plan_strategy(4, 10, 10_000)) {
        prop_assert!(plan.validate().is_ok(), "strategy produced invalid plan");
        let outcome = Orchestrator::detached().run_sim(&plan);
        prop_assert!(outcome.settled, "cluster failed to re-stabilize:\n{}", plan.to_text());
        if let Some(failure) = outcome.failure {
            panic!(
                "violations of {}:\n{}\nplan:\n{}",
                failure.specs.join(", "),
                failure.details,
                plan.to_text()
            );
        }
    }

    /// Deterministic replay: the same plan gives the same trace.
    #[test]
    fn schedules_are_reproducible(plan in plan_strategy(3, 6, 1_000)) {
        let orch = Orchestrator::detached();
        let (a, _) = orch.execute(&plan);
        let (b, _) = orch.execute(&plan);
        let ta = a.trace();
        let tb = b.trace();
        for (la, lb) in ta.events.iter().zip(&tb.events) {
            prop_assert_eq!(la, lb);
        }
    }

    /// The text artifact is faithful: parsing a rendered plan yields the
    /// same plan, so a saved counterexample replays the same execution.
    #[test]
    fn plans_round_trip_through_text(plan in plan_strategy(4, 10, 10_000)) {
        let replayed = FaultPlan::from_text(&plan.to_text()).expect("rendered plan parses");
        prop_assert_eq!(&replayed, &plan);
        prop_assert_eq!(replayed.to_text(), plan.to_text());
    }
}
