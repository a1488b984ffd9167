//! # evs-chaos — deterministic fault injection for extended virtual synchrony
//!
//! Part of the reproduction of *Extended Virtual Synchrony* (Moser, Amir,
//! Melliar-Smith, Agarwal; ICDCS 1994). The paper's claim is correctness
//! under arbitrary partitioning, crash and recovery; this crate searches
//! that fault space at scale and turns any violation into a minimal,
//! replayable counterexample:
//!
//! * [`FaultPlan`] / [`FaultStep`] — the schedule DSL (`Split`, `Merge`,
//!   `Crash`, `Recover`, `DropPct`, `Delay`, `Mcast`, `Run`, plus the
//!   broker front-end steps `BrokerKill`/`BrokerReconnect`) with a
//!   plain-text artifact format, so every failure replays from a file.
//! * [`ScenarioGen`] — seeded, weighted random plan generation
//!   (deterministic: same seed, same plan).
//! * [`Orchestrator`] — executes plans with the full vocabulary against
//!   the simulated cluster or the live threaded driver (whose per-link
//!   fault layer carries `DropPct`/`Delay` under real concurrency) and
//!   runs the complete conformance suite: Specifications 1.1–7.2, the
//!   primary-component properties, and the §5 VS reduction. Plans with
//!   broker steps run on the broker client path (`evs-broker`'s
//!   [`BrokerCluster`](evs_broker::BrokerCluster), one broker per
//!   daemon), which additionally checks the client-op exactly-once
//!   invariants (`broker-dedup`, `broker-ack`).
//! * [`Shrinker`] — delta-debugging minimization by step removal,
//!   adjacent-`Run` merging, process-id remapping and parameter
//!   reduction, re-checking every candidate.
//! * [`Campaign`] — the loop: generate, run, check, shrink, report
//!   (with chaos events wired into `evs-telemetry`); `jobs > 1` stripes
//!   seeds across worker threads with a deterministic merge.
//!
//! The `chaos-mutation` cargo feature rebuilds `evs-core` with a
//! deliberate protocol bug (a skipped obligation-set union in the recovery
//! algorithm) so the pipeline can prove, in its self-test, that it catches
//! and shrinks real violations — see `tests/mutation_self_test.rs`. The
//! `broker-mutation` feature does the same for the client path: it plants
//! a dedup-ledger bug in `evs-broker` that broker campaigns must find and
//! shrink — see `tests/broker_mutation_self_test.rs`.
//!
//! ```
//! use evs_chaos::{Campaign, CampaignConfig, GenConfig, Orchestrator, ScenarioGen, Shrinker};
//!
//! let campaign = Campaign::new(
//!     ScenarioGen::new(GenConfig::default()),
//!     Orchestrator::detached(),
//!     Shrinker::default(),
//!     CampaignConfig::default(),
//! );
//! let (stats, counterexamples) = campaign.run(0xC4A05, 3);
//! assert_eq!(stats.runs, 3);
//! assert!(counterexamples.is_empty(), "the correct engine passes");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod factory;
mod gen;
mod orchestrator;
mod plan;
mod shrink;

pub use campaign::{Campaign, CampaignConfig, CampaignStats, CounterExample};
pub use factory::{plan_shape, Factory, FactoryConfig, FactoryCoverage, FactoryReport};
pub use gen::{FaultMix, GenConfig, ScenarioGen};
pub use orchestrator::{conformance, ChaosFailure, ChaosOutcome, Frame, Orchestrator};
pub use plan::{BitTarget, FaultPlan, FaultStep, PlanError, STEP_KINDS};
pub use shrink::{ShrinkResult, Shrinker};

/// True when the workspace was built with the deliberate `chaos-mutation`
/// protocol bug in `evs-core` — the self-test's tripwire, and a guard for
/// anything that must never run against a mutated engine.
pub const fn mutation_active() -> bool {
    cfg!(feature = "chaos-mutation")
}

/// True when the workspace was built with the deliberate `broker-mutation`
/// dedup bug in `evs-broker` — the broker self-test's tripwire, and a
/// guard for anything that must never run against a mutated ledger.
pub const fn broker_mutation_active() -> bool {
    cfg!(feature = "broker-mutation")
}
