//! What a campaign exercised, and the counterexamples it keeps.
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
//! [`persist_corpus`] writes every failure as `chaos-repro-<seed>.txt`
//! (the minimal replayable plan) plus `chaos-full-<seed>.txt` (the
//! original schedule), all indexed in `index.json` — written atomically
//! via tmp + rename, and adopting any loose `chaos-repro-*.txt` files
//! already in the directory, so artifacts from earlier campaigns are
//! indexed on the first persisting run.

use crate::campaign::{CampaignStats, CounterExample};
use crate::plan::{FaultPlan, FaultStep};
use evs_inspect::ANOMALY_KINDS;
use evs_telemetry::json::push_json_string;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

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

/// Persists a sweep into `dir`: every counterexample as
/// `chaos-repro-<seed>.txt` (minimal, replayable) plus
/// `chaos-full-<seed>.txt` (the original schedule), then the corpus
/// index as `index.json` — written to a `.tmp` sibling and renamed into
/// place, so a reader never observes a torn index. Loose
/// `chaos-repro-*.txt` files already in the directory (artifacts of
/// earlier campaigns) are adopted into the index. Returns the index path.
///
/// # Errors
///
/// Propagates the filesystem error if the directory cannot be created or
/// a file cannot be written.
pub fn persist_corpus(
    dir: &Path,
    base_seed: u64,
    stats: &CampaignStats,
    counterexamples: &[CounterExample],
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut entries: Vec<IndexEntry> = Vec::new();
    for ce in counterexamples {
        let repro = format!("chaos-repro-{}.txt", ce.seed);
        let full = format!("chaos-full-{}.txt", ce.seed);
        std::fs::write(dir.join(&repro), ce.artifact())?;
        std::fs::write(dir.join(&full), ce.original.to_text())?;
        entries.push(IndexEntry {
            seed: ce.seed,
            source: "factory",
            specs: ce.failure.specs.clone(),
            repro,
            original: Some(full),
            original_steps: Some(ce.original.steps.len()),
            shrunk_steps: Some(ce.shrunk.steps.len()),
        });
    }
    adopt_loose_artifacts(dir, &mut entries)?;
    entries.sort_by(|a, b| a.seed.cmp(&b.seed).then(a.repro.cmp(&b.repro)));
    let index = render_index(base_seed, stats, &entries);
    let path = dir.join("index.json");
    let tmp = dir.join("index.json.tmp");
    std::fs::write(&tmp, index)?;
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// One row of `index.json`.
struct IndexEntry {
    seed: u64,
    source: &'static str,
    specs: Vec<String>,
    repro: String,
    original: Option<String>,
    original_steps: Option<usize>,
    shrunk_steps: Option<usize>,
}

/// Scans `dir` for `chaos-repro-*.txt` files not already indexed and
/// adopts them (seed from the filename, violated specs from the
/// `# violates:` header the artifact format writes).
fn adopt_loose_artifacts(dir: &Path, entries: &mut Vec<IndexEntry>) -> io::Result<()> {
    let known: BTreeSet<String> = entries.iter().map(|e| e.repro.clone()).collect();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(seed) = name
            .strip_prefix("chaos-repro-")
            .and_then(|s| s.strip_suffix(".txt"))
            .and_then(|s| s.parse::<u64>().ok())
        else {
            continue;
        };
        if known.contains(&name) {
            continue;
        }
        let specs = std::fs::read_to_string(entry.path())
            .ok()
            .and_then(|text| {
                text.lines()
                    .find_map(|l| l.strip_prefix("# violates: ").map(str::to_string))
            })
            .map(|line| line.split(", ").map(str::to_string).collect())
            .unwrap_or_default();
        entries.push(IndexEntry {
            seed,
            source: "loose",
            specs,
            repro: name,
            original: None,
            original_steps: None,
            shrunk_steps: None,
        });
    }
    Ok(())
}

/// Renders `index.json`: sweep provenance, the three coverage ledgers,
/// the never-fired lists, and one row per artifact.
fn render_index(base_seed: u64, stats: &CampaignStats, entries: &[IndexEntry]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n");
    let _ = writeln!(out, "  \"base_seed\": {base_seed},");
    let _ = writeln!(out, "  \"runs\": {},", stats.runs);
    let _ = writeln!(out, "  \"live_runs\": {},", stats.live_runs);
    let _ = writeln!(out, "  \"steps\": {},", stats.steps);
    let _ = writeln!(out, "  \"failures\": {},", stats.failures);
    fn push_map<'a>(out: &mut String, name: &str, map: impl Iterator<Item = (&'a str, u64)>) {
        let _ = write!(out, "  ");
        push_json_string(out, name);
        out.push_str(": {");
        for (i, (k, v)) in map.enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_string(out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("},\n");
    }
    let coverage = &stats.coverage;
    let kinds = coverage.kinds.iter().map(|(k, v)| (*k, *v));
    push_map(&mut out, "kind_coverage", kinds);
    let shapes = coverage.shapes.iter().map(|(k, v)| (k.as_str(), *v));
    push_map(&mut out, "shape_coverage", shapes);
    let anomalies = coverage.anomalies.iter().map(|(k, v)| (*k, *v));
    push_map(&mut out, "anomaly_coverage", anomalies);
    let push_list = |out: &mut String, name: &str, items: &[&str]| {
        let _ = write!(out, "  ");
        push_json_string(out, name);
        out.push_str(": [");
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_string(out, item);
        }
        out.push_str("],\n");
    };
    push_list(&mut out, "never_fired_kinds", &coverage.never_fired_kinds());
    push_list(
        &mut out,
        "never_fired_detectors",
        &coverage.never_fired_detectors(),
    );
    out.push_str("  \"artifacts\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    {\"seed\": ");
        let _ = write!(out, "{}", e.seed);
        out.push_str(", \"source\": ");
        push_json_string(&mut out, e.source);
        out.push_str(", \"specs\": [");
        for (j, s) in e.specs.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_json_string(&mut out, s);
        }
        out.push_str("], \"repro\": ");
        push_json_string(&mut out, &e.repro);
        if let Some(full) = &e.original {
            out.push_str(", \"original\": ");
            push_json_string(&mut out, full);
        }
        if let (Some(from), Some(to)) = (e.original_steps, e.shrunk_steps) {
            let _ = write!(out, ", \"original_steps\": {from}, \"shrunk_steps\": {to}");
        }
        out.push('}');
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
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
    fn persist_writes_an_atomic_index_and_adopts_loose_artifacts() {
        let dir = std::env::temp_dir().join(format!("evs-corpus-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // An earlier campaign left a loose repro behind.
        std::fs::write(
            dir.join("chaos-repro-424242.txt"),
            "# evs-chaos counterexample (generated from seed 424242)\n\
             # violates: 6.1, settle\n\
             n 3\nseed 424242\nmerge\n",
        )
        .unwrap();
        let (stats, found) = factory_campaign(2).run(0xFAC7_2000, 4);
        let index_path = persist_corpus(&dir, 0xFAC7_2000, &stats, &found).unwrap();
        assert_eq!(index_path, dir.join("index.json"));
        assert!(!dir.join("index.json.tmp").exists(), "tmp must be renamed");
        let index = std::fs::read_to_string(&index_path).unwrap();
        assert!(index.contains("\"version\": 1"), "{index}");
        assert!(index.contains("\"kind_coverage\""), "{index}");
        assert!(index.contains("\"never_fired_detectors\""), "{index}");
        assert!(
            index.contains("\"seed\": 424242") && index.contains("\"source\": \"loose\""),
            "loose artifact not adopted: {index}"
        );
        assert!(
            index.contains("\"specs\": [\"6.1\", \"settle\"]"),
            "{index}"
        );
        // Idempotent: a second persist re-indexes rather than duplicating.
        persist_corpus(&dir, 0xFAC7_2000, &stats, &found).unwrap();
        let again = std::fs::read_to_string(&index_path).unwrap();
        assert_eq!(
            again.matches("424242").count(),
            index.matches("424242").count()
        );
        let _ = std::fs::remove_dir_all(&dir);
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
