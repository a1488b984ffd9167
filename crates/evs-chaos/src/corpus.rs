//! What a campaign exercised.
//!
//! A [`Campaign`](crate::Campaign) answers "does this mix find a bug?";
//! a standing soak pushing millions of schedules also has to answer *what
//! did all that compute actually exercise?* Every executed plan feeds
//! three coverage ledgers:
//!
//! * **fault kinds** — which [`STEP_KINDS`](crate::STEP_KINDS) executed,
//!   counted against the kinds the configured mix can generate
//!   ([`FaultMix::generable_kinds`](crate::FaultMix::generable_kinds)); a
//!   generable kind that never fired is a generation or execution bug,
//!   and strict callers fail on it.
//! * **plan shapes** — which combinations of fault categories
//!   (partition, crash, kill, net, broker, corruption, traffic) each
//!   schedule composed, so a soak that only ever ran one-dimensional
//!   plans is visible.
//! * **anomaly detectors** — which of `evs-inspect`'s [`ANOMALY_KINDS`]
//!   fired at least once under deliberately aggressive thresholds, when
//!   the orchestrator has telemetry attached; a detector that millions of
//!   hostile schedules never exercised is dead weight (or miswired), and
//!   the report says so.
//!
//! The ledgers are printed, not stored: [`Coverage::to_text`] is the
//! report. A failure is kept as its
//! [`CounterExample::artifact`](crate::CounterExample::artifact): a
//! replayable plan whose header carries the seed, the violated
//! specifications and the shrink counts.

use crate::plan::{FaultPlan, FaultStep};
use evs_inspect::ANOMALY_KINDS;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The three coverage ledgers a sweep fills in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Coverage {
    /// The kinds the configured mix can generate.
    pub expected_kinds: Vec<&'static str>,
    /// Executed step count per canonical fault-kind name.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Executed plan count per shape (the `+`-joined set of fault
    /// categories the plan composed, `"quiet"` for none).
    pub shapes: BTreeMap<String, u64>,
    /// Fire count per anomaly-detector kind.
    pub anomalies: BTreeMap<&'static str, u64>,
}

impl Coverage {
    /// Counts one executed plan and the detectors that fired on it.
    pub(crate) fn count(&mut self, plan: &FaultPlan, anomalies: &[&'static str]) {
        for step in &plan.steps {
            *self.kinds.entry(step.kind_name()).or_insert(0) += 1;
        }
        *self.shapes.entry(plan_shape(plan)).or_insert(0) += 1;
        for kind in anomalies {
            *self.anomalies.entry(kind).or_insert(0) += 1;
        }
    }

    /// The generable kinds that never executed.
    pub fn never_fired_kinds(&self) -> Vec<&'static str> {
        self.expected_kinds
            .iter()
            .filter(|k| self.kinds.get(*k).copied().unwrap_or(0) == 0)
            .copied()
            .collect()
    }

    /// The inspect anomaly detectors that never fired.
    pub fn never_fired_detectors(&self) -> Vec<&'static str> {
        ANOMALY_KINDS
            .iter()
            .filter(|k| self.anomalies.get(*k).copied().unwrap_or(0) == 0)
            .copied()
            .collect()
    }

    /// Human-readable coverage report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let (expected, never) = (self.expected_kinds.len(), self.never_fired_kinds());
        let fired = expected - never.len();
        let _ = writeln!(
            out,
            "fault kinds ({fired}/{expected} generable kinds fired):"
        );
        for (kind, count) in &self.kinds {
            let _ = writeln!(out, "  {kind:<18} {count}");
        }
        if never.is_empty() {
            let _ = writeln!(out, "  every generable fault kind fired \u{2713}");
        } else {
            let _ = writeln!(out, "  NEVER FIRED: {}", never.join(", "));
        }
        let _ = writeln!(out, "plan shapes ({} distinct):", self.shapes.len());
        for (shape, count) in &self.shapes {
            let _ = writeln!(out, "  {shape:<40} {count}");
        }
        let dead = self.never_fired_detectors();
        let _ = writeln!(
            out,
            "anomaly detectors ({}/{} fired):",
            ANOMALY_KINDS.len() - dead.len(),
            ANOMALY_KINDS.len()
        );
        for (kind, count) in &self.anomalies {
            let _ = writeln!(out, "  {kind:<22} {count}");
        }
        if dead.is_empty() {
            let _ = writeln!(out, "  every anomaly detector fired \u{2713}");
        } else {
            let _ = writeln!(out, "  never fired: {}", dead.join(", "));
        }
        out
    }
}

/// The category a step contributes to its plan's shape.
fn category(step: &FaultStep) -> Option<&'static str> {
    Some(match step {
        FaultStep::Split(_) | FaultStep::Merge => "partition",
        FaultStep::Crash(_) | FaultStep::Recover(_) => "crash",
        FaultStep::Kill(_) | FaultStep::Restart(_) => "kill",
        FaultStep::DropPct(_) | FaultStep::Delay(_, _) => "net",
        FaultStep::BrokerKill(_) | FaultStep::BrokerReconnect(_) => "broker",
        FaultStep::Mcast { .. } => "traffic",
        FaultStep::Run(_) => return None,
        step if step.is_corruption() => "corruption",
        _ => return None,
    })
}

/// The shape signature of a plan: its fault categories, `+`-joined in a
/// fixed order (`"quiet"` for a plan of bare `Run` steps).
pub fn plan_shape(plan: &FaultPlan) -> String {
    let present: BTreeSet<&'static str> = plan.steps.iter().filter_map(category).collect();
    // Fixed presentation order: causes before symptoms.
    const ORDER: &[&str] = &[
        "partition",
        "crash",
        "kill",
        "net",
        "broker",
        "corruption",
        "traffic",
    ];
    let parts: Vec<&str> = ORDER
        .iter()
        .filter(|c| present.contains(**c))
        .copied()
        .collect();
    if parts.is_empty() {
        "quiet".to_string()
    } else {
        parts.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::factory_campaign;

    #[test]
    fn small_soak_on_the_correct_engine_is_clean_and_counts_coverage() {
        let (stats, found) = factory_campaign(2).run(0xFAC7_0000, 10);
        assert_eq!(stats.runs, 10);
        assert_eq!(stats.failures, 0, "{found:?}");
        assert!(stats.steps > 0);
        // 10 plans cannot cover 19 kinds-worth of vocabulary reliably,
        // but they must have counted *something*, and the report must
        // know what is still missing.
        assert!(!stats.coverage.kinds.is_empty());
        assert!(!stats.coverage.shapes.is_empty());
        let text = stats.coverage.to_text();
        assert!(text.contains("fault kinds"), "{text}");
        assert!(text.contains("plan shapes"), "{text}");
        assert!(text.contains("anomaly detectors"), "{text}");
    }

    #[test]
    fn a_wide_soak_covers_every_generable_kind() {
        // The strict-coverage gate the scheduled soak uses: enough
        // iterations of the factory mix fire all 19 kinds.
        let (stats, _) = factory_campaign(2).run(0xFAC7_3000, 160);
        let coverage = &stats.coverage;
        assert!(
            coverage.never_fired_kinds().is_empty(),
            "never fired: {:?}",
            coverage.never_fired_kinds()
        );
        // And the anomaly pass must be live: with aggressive thresholds,
        // 160 hostile schedules fire at least a few detectors.
        assert!(
            !coverage.anomalies.is_empty(),
            "no detector fired over 160 runs: {coverage:?}"
        );
    }

    #[test]
    fn plan_shapes_classify_by_category() {
        use crate::plan::BitTarget;
        let quiet = FaultPlan {
            n: 2,
            seed: 0,
            steps: vec![FaultStep::Run(10)],
        };
        assert_eq!(plan_shape(&quiet), "quiet");
        let mixed = FaultPlan {
            n: 2,
            seed: 0,
            steps: vec![
                FaultStep::Kill(0),
                FaultStep::BitFlip {
                    p: 1,
                    target: BitTarget::Aru,
                    bit: 3,
                },
                FaultStep::Run(10),
            ],
        };
        assert_eq!(plan_shape(&mixed), "kill+corruption");
    }
}
