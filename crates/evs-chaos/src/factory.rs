//! The chaos factory: scheduled mass soaks with coverage accounting and
//! a persistent, indexed counterexample corpus.
//!
//! A [`Campaign`](crate::Campaign) answers "does this mix find a bug?";
//! the factory answers the operational question behind a standing soak
//! pushing millions of schedules: *what did all that compute actually
//! exercise?* Every iteration generates one plan (base seed + iteration
//! index), executes it — on the deterministic simulator, or on the live
//! threaded driver for every `live_every`-th iteration — through the full
//! conformance suite, and feeds three coverage ledgers:
//!
//! * **fault kinds** — which [`STEP_KINDS`](crate::STEP_KINDS) executed,
//!   counted against the kinds the configured mix can generate
//!   ([`FaultMix::generable_kinds`]); a generable kind that never fired
//!   is a generation or execution bug, and strict callers fail on it.
//! * **plan shapes** — which combinations of fault categories
//!   (partition, crash, kill, net, broker, corruption, traffic) each
//!   schedule composed, so a soak that only ever ran one-dimensional
//!   plans is visible.
//! * **anomaly detectors** — which of `evs-inspect`'s
//!   [`ANOMALY_KINDS`] fired at least once, under deliberately
//!   aggressive thresholds ([`FactoryConfig::default`]); a detector that
//!   millions of hostile schedules never exercised is dead weight (or
//!   miswired), and the report says so.
//!
//! Failures are ddmin-shrunk and persisted: `chaos-repro-<seed>.txt`
//! (the minimal replayable plan) plus `chaos-full-<seed>.txt` (the
//! original schedule), all indexed in `index.json` — written atomically
//! via tmp + rename, and adopting any loose `chaos-repro-*.txt` files
//! already in the directory, so artifacts from pre-factory campaigns are
//! indexed on the first factory run.

use crate::campaign::CounterExample;
use crate::gen::ScenarioGen;
use crate::orchestrator::{ChaosFailure, Orchestrator};
use crate::plan::{FaultPlan, FaultStep};
use crate::shrink::Shrinker;
use evs_inspect::{AnomalyConfig, InspectReport, ANOMALY_KINDS};
use evs_telemetry::json::push_json_string;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Tunables of a factory soak (seed range comes from [`Factory::run`]).
#[derive(Clone, Debug)]
pub struct FactoryConfig {
    /// Worker threads (`<= 1` runs on the caller's thread). Iterations
    /// are striped across the workers and merged back in iteration
    /// order, so the report is deterministic regardless of thread
    /// timing.
    pub jobs: usize,
    /// Every `live_every`-th iteration runs on the live multi-threaded
    /// driver instead of the simulator (`0` = simulator only). Plans the
    /// live driver cannot execute (broker steps) fall back to the
    /// simulator, so the schedule space is never silently narrowed.
    pub live_every: u64,
    /// Shrink failing plans before persisting them.
    pub shrink: bool,
    /// Print a progress line every this many iterations (`0` disables).
    pub progress_every: u64,
    /// Where artifacts and `index.json` land.
    pub artifact_dir: PathBuf,
    /// Thresholds for the per-run anomaly pass. The default here is
    /// deliberately *aggressive* — far below `AnomalyConfig::default()`
    /// — because the factory measures whether detectors *can* fire
    /// under hostile schedules, not whether a production run is sick.
    pub anomaly: AnomalyConfig,
}

impl Default for FactoryConfig {
    fn default() -> Self {
        FactoryConfig {
            jobs: 1,
            live_every: 0,
            shrink: true,
            progress_every: 100,
            artifact_dir: PathBuf::from("chaos-artifacts"),
            anomaly: AnomalyConfig {
                starvation_factor: 2,
                starvation_min_ticks: 20,
                hole_storm_threshold: 4,
                obligation_growth_run: 2,
                retx_storm_threshold: 4,
                retx_storm_factor: 1,
            },
        }
    }
}

/// The three coverage ledgers a soak fills in.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FactoryCoverage {
    /// Executed step count per canonical fault-kind name.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Executed plan count per shape (the `+`-joined set of fault
    /// categories the plan composed, `"quiet"` for none).
    pub shapes: BTreeMap<String, u64>,
    /// Fire count per anomaly-detector kind.
    pub anomalies: BTreeMap<&'static str, u64>,
}

impl FactoryCoverage {
    /// The generable kinds (per the mix) that never executed.
    pub fn never_fired_kinds(&self, expected: &[&'static str]) -> Vec<&'static str> {
        expected
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
}

/// Everything a factory soak produced.
#[derive(Clone, Debug)]
pub struct FactoryReport {
    /// First seed of the soak.
    pub base_seed: u64,
    /// Iterations executed.
    pub runs: u64,
    /// Iterations that ran on the live threaded driver.
    pub live_runs: u64,
    /// Total schedule steps executed.
    pub steps: u64,
    /// Iterations that violated a property (or failed to settle).
    pub failures: u64,
    /// The coverage ledgers.
    pub coverage: FactoryCoverage,
    /// The kinds the configured mix was expected to produce.
    pub expected_kinds: Vec<&'static str>,
    /// Every failure, shrunk and ready to persist.
    pub counterexamples: Vec<CounterExample>,
}

impl FactoryReport {
    /// True when every generable fault kind executed at least once — the
    /// strict-coverage gate a scheduled soak fails on.
    pub fn kind_coverage_complete(&self) -> bool {
        self.coverage
            .never_fired_kinds(&self.expected_kinds)
            .is_empty()
    }

    /// Human-readable coverage report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== chaos factory: {} run(s) ({} live), {} step(s), {} failure(s) ==",
            self.runs, self.live_runs, self.steps, self.failures
        );
        let fired = self
            .expected_kinds
            .iter()
            .filter(|k| self.coverage.kinds.get(*k).copied().unwrap_or(0) > 0)
            .count();
        let _ = writeln!(
            out,
            "fault kinds ({}/{} generable kinds fired):",
            fired,
            self.expected_kinds.len()
        );
        for (kind, count) in &self.coverage.kinds {
            let _ = writeln!(out, "  {kind:<18} {count}");
        }
        let never = self.coverage.never_fired_kinds(&self.expected_kinds);
        if never.is_empty() {
            let _ = writeln!(out, "  every generable fault kind fired \u{2713}");
        } else {
            let _ = writeln!(out, "  NEVER FIRED: {}", never.join(", "));
        }
        let _ = writeln!(
            out,
            "plan shapes ({} distinct):",
            self.coverage.shapes.len()
        );
        for (shape, count) in &self.coverage.shapes {
            let _ = writeln!(out, "  {shape:<40} {count}");
        }
        let _ = writeln!(
            out,
            "anomaly detectors ({}/{} fired):",
            ANOMALY_KINDS.len() - self.coverage.never_fired_detectors().len(),
            ANOMALY_KINDS.len()
        );
        for (kind, count) in &self.coverage.anomalies {
            let _ = writeln!(out, "  {kind:<22} {count}");
        }
        let dead = self.coverage.never_fired_detectors();
        if dead.is_empty() {
            let _ = writeln!(out, "  every anomaly detector fired \u{2713}");
        } else {
            let _ = writeln!(out, "  never fired: {}", dead.join(", "));
        }
        out
    }
}

/// One executed iteration, before the deterministic merge.
struct FactoryRun {
    i: u64,
    seed: u64,
    live: bool,
    plan: FaultPlan,
    anomalies: Vec<&'static str>,
    failure: Option<ChaosFailure>,
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

/// The factory: generate, execute (sim or live), analyze, shrink, and
/// account — at soak scale.
#[derive(Clone, Debug)]
pub struct Factory {
    generator: ScenarioGen,
    orchestrator: Orchestrator,
    shrinker: Shrinker,
    config: FactoryConfig,
}

impl Factory {
    /// Builds a factory from its parts. The orchestrator should keep
    /// telemetry attached (the default): detector coverage reads each
    /// run's flight-recorder dumps, and a detached orchestrator yields
    /// an all-zero anomaly ledger.
    pub fn new(
        generator: ScenarioGen,
        orchestrator: Orchestrator,
        shrinker: Shrinker,
        config: FactoryConfig,
    ) -> Self {
        Factory {
            generator,
            orchestrator,
            shrinker,
            config,
        }
    }

    /// True when iteration `i` is scheduled on the live driver.
    fn live_slot(&self, i: u64) -> bool {
        let every = self.config.live_every;
        every > 0 && (i + 1).is_multiple_of(every)
    }

    /// Runs `iterations` seeds from `base_seed` and returns the merged,
    /// deterministic report. Never stops on failure — a soak's job is
    /// coverage, and every failure becomes an artifact instead of a halt.
    pub fn run(&self, base_seed: u64, iterations: u64) -> FactoryReport {
        let jobs = self.config.jobs.max(1).min(iterations.max(1) as usize);
        let runs = self.run_shards(base_seed, iterations, jobs);
        let mut report = FactoryReport {
            base_seed,
            runs: 0,
            live_runs: 0,
            steps: 0,
            failures: 0,
            coverage: FactoryCoverage::default(),
            expected_kinds: self.generator.config().mix.generable_kinds(),
            counterexamples: Vec::new(),
        };
        for run in runs {
            report.runs += 1;
            report.live_runs += run.live as u64;
            report.steps += run.plan.steps.len() as u64;
            for step in &run.plan.steps {
                *report.coverage.kinds.entry(step.kind_name()).or_insert(0) += 1;
            }
            *report
                .coverage
                .shapes
                .entry(plan_shape(&run.plan))
                .or_insert(0) += 1;
            for kind in run.anomalies {
                *report.coverage.anomalies.entry(kind).or_insert(0) += 1;
            }
            if let Some(failure) = run.failure {
                report.failures += 1;
                report
                    .counterexamples
                    .push(self.shrink(run.seed, run.plan, failure, run.live));
            }
        }
        report
    }

    /// Executes one iteration: generate, run on the scheduled driver,
    /// and pass the flight dumps through the anomaly detectors.
    fn execute(&self, i: u64, seed: u64) -> FactoryRun {
        let plan = self.generator.plan(seed);
        let live = self.live_slot(i) && plan.live_compatible();
        let outcome = if live {
            self.orchestrator
                .run_live(&plan)
                .expect("generated live-compatible plans validate")
        } else {
            self.orchestrator.run_sim(&plan)
        };
        // Two frames per run: the pre-heal one, where fault-induced
        // anomalies are still visible (a stuck recovery, an undelivered
        // message), and the end-of-run one, where only what survived the
        // heal remains. Coverage counts a detector once per run.
        let mut anomalies: Vec<&'static str> = Vec::new();
        for frame in [&outcome.mid, &outcome.end] {
            if frame.dumps.is_empty() {
                continue;
            }
            let report =
                InspectReport::analyze_with(&frame.trace, &frame.dumps, &self.config.anomaly);
            for a in report.anomalies {
                if !anomalies.contains(&a.kind) {
                    anomalies.push(a.kind);
                }
            }
        }
        FactoryRun {
            i,
            seed,
            live,
            plan,
            anomalies,
            failure: outcome.failure,
        }
    }

    /// Stripes the iteration range over `jobs` scoped worker threads
    /// (worker `w` takes `w, w + jobs, …`) and returns every run sorted
    /// by iteration — the same merge discipline as
    /// [`Campaign`](crate::Campaign), so the report is independent of
    /// thread timing.
    fn run_shards(&self, base_seed: u64, iterations: u64, jobs: usize) -> Vec<FactoryRun> {
        use std::sync::atomic::{AtomicU64, Ordering};
        let done = AtomicU64::new(0);
        let failed = AtomicU64::new(0);
        let mut runs: Vec<FactoryRun> = Vec::new();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..jobs)
                .map(|w| {
                    let done = &done;
                    let failed = &failed;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = w as u64;
                        while i < iterations {
                            let run = self.execute(i, base_seed.wrapping_add(i));
                            if run.failure.is_some() {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                            out.push(run);
                            let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                            let every = self.config.progress_every;
                            if every != 0 && d.is_multiple_of(every) {
                                eprintln!(
                                    "factory progress: {d}/{iterations} plan(s), {} failure(s)",
                                    failed.load(Ordering::Relaxed)
                                );
                            }
                            i += jobs as u64;
                        }
                        out
                    })
                })
                .collect();
            for worker in workers {
                runs.extend(worker.join().expect("factory worker panicked"));
            }
        });
        runs.sort_by_key(|r| r.i);
        runs
    }

    /// Shrinks one failure against the driver it failed on (sim failures
    /// re-check on the simulator, live failures on the live driver).
    fn shrink(
        &self,
        seed: u64,
        plan: FaultPlan,
        failure: ChaosFailure,
        live: bool,
    ) -> CounterExample {
        let target_spec = failure.primary_spec().to_string();
        let (shrunk, checks) = if self.config.shrink {
            let target = target_spec.clone();
            let orch = self.orchestrator.clone();
            let result = self.shrinker.shrink(&plan, move |candidate| {
                let outcome = if live {
                    orch.run_live(candidate).expect("shrunken plans validate")
                } else {
                    orch.run_sim(candidate)
                };
                outcome.failure.is_some_and(|f| f.specs.contains(&target))
            });
            (result.plan, result.checks)
        } else {
            (plan.clone(), 0)
        };
        CounterExample {
            seed,
            original: plan,
            shrunk,
            failure,
            target_spec,
            shrink_checks: checks,
        }
    }

    /// Persists the soak: every counterexample as
    /// `chaos-repro-<seed>.txt` (minimal, replayable) plus
    /// `chaos-full-<seed>.txt` (the original schedule), then the corpus
    /// index as `index.json` — written to a `.tmp` sibling and renamed
    /// into place, so a reader never observes a torn index. Loose
    /// `chaos-repro-*.txt` files already in the directory (artifacts of
    /// pre-factory campaigns) are adopted into the index. Returns the
    /// index path.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error if the directory cannot be
    /// created or a file cannot be written.
    pub fn persist(&self, report: &FactoryReport) -> io::Result<PathBuf> {
        let dir = &self.config.artifact_dir;
        std::fs::create_dir_all(dir)?;
        let mut entries: Vec<IndexEntry> = Vec::new();
        for ce in &report.counterexamples {
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
        let index = render_index(report, &entries);
        let path = dir.join("index.json");
        let tmp = dir.join("index.json.tmp");
        std::fs::write(&tmp, index)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }
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

/// Renders `index.json`: soak provenance, the three coverage ledgers,
/// the never-fired lists, and one row per artifact.
fn render_index(report: &FactoryReport, entries: &[IndexEntry]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n");
    let _ = writeln!(out, "  \"base_seed\": {},", report.base_seed);
    let _ = writeln!(out, "  \"runs\": {},", report.runs);
    let _ = writeln!(out, "  \"live_runs\": {},", report.live_runs);
    let _ = writeln!(out, "  \"steps\": {},", report.steps);
    let _ = writeln!(out, "  \"failures\": {},", report.failures);
    let push_map = |out: &mut String, name: &str, map: &[(&str, u64)]| {
        let _ = write!(out, "  ");
        push_json_string(out, name);
        out.push_str(": {");
        for (i, (k, v)) in map.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_string(out, k);
            let _ = write!(out, ": {v}");
        }
        out.push_str("},\n");
    };
    let kinds: Vec<(&str, u64)> = report
        .coverage
        .kinds
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect();
    push_map(&mut out, "kind_coverage", &kinds);
    let shapes: Vec<(&str, u64)> = report
        .coverage
        .shapes
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    push_map(&mut out, "shape_coverage", &shapes);
    let anomalies: Vec<(&str, u64)> = report
        .coverage
        .anomalies
        .iter()
        .map(|(k, v)| (*k, *v))
        .collect();
    push_map(&mut out, "anomaly_coverage", &anomalies);
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
    push_list(
        &mut out,
        "never_fired_kinds",
        &report.coverage.never_fired_kinds(&report.expected_kinds),
    );
    push_list(
        &mut out,
        "never_fired_detectors",
        &report.coverage.never_fired_detectors(),
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
    use crate::gen::{FaultMix, GenConfig};

    fn small_factory(dir: Option<PathBuf>) -> Factory {
        let cfg = GenConfig {
            n: 3,
            max_steps: 6,
            max_run: 800,
            mix: FaultMix::factory(),
            ..GenConfig::default()
        };
        Factory::new(
            ScenarioGen::new(cfg),
            Orchestrator::default(),
            Shrinker::default(),
            FactoryConfig {
                jobs: 2,
                progress_every: 0,
                artifact_dir: dir.unwrap_or_else(|| PathBuf::from("chaos-artifacts")),
                ..FactoryConfig::default()
            },
        )
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("evs-factory-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn small_soak_on_the_correct_engine_is_clean_and_counts_coverage() {
        let factory = small_factory(None);
        let report = factory.run(0xFAC7_0000, 10);
        assert_eq!(report.runs, 10);
        assert_eq!(report.failures, 0, "{:?}", report.counterexamples);
        assert!(report.steps > 0);
        // 10 plans cannot cover 19 kinds-worth of vocabulary reliably,
        // but they must have counted *something*, and the report must
        // know what is still missing.
        assert!(!report.coverage.kinds.is_empty());
        assert!(!report.coverage.shapes.is_empty());
        let text = report.to_text();
        assert!(text.contains("fault kinds"), "{text}");
        assert!(text.contains("plan shapes"), "{text}");
        assert!(text.contains("anomaly detectors"), "{text}");
    }

    #[test]
    fn striped_soak_matches_the_sequential_one() {
        let a = small_factory(None);
        let mut b = small_factory(None);
        b.config.jobs = 1;
        let ra = a.run(0xFAC7_1000, 8);
        let rb = b.run(0xFAC7_1000, 8);
        assert_eq!(ra.runs, rb.runs);
        assert_eq!(ra.failures, rb.failures);
        assert_eq!(ra.steps, rb.steps);
        assert_eq!(ra.coverage, rb.coverage);
    }

    #[test]
    fn persist_writes_an_atomic_index_and_adopts_loose_artifacts() {
        let dir = scratch_dir("index");
        std::fs::create_dir_all(&dir).unwrap();
        // A pre-factory campaign left a loose repro behind.
        std::fs::write(
            dir.join("chaos-repro-424242.txt"),
            "# evs-chaos counterexample (generated from seed 424242)\n\
             # violates: 6.1, settle\n\
             n 3\nseed 424242\nmerge\n",
        )
        .unwrap();
        let factory = small_factory(Some(dir.clone()));
        let report = factory.run(0xFAC7_2000, 4);
        let index_path = factory.persist(&report).unwrap();
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
        factory.persist(&report).unwrap();
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
        let factory = small_factory(None);
        let report = factory.run(0xFAC7_3000, 160);
        assert!(
            report.kind_coverage_complete(),
            "never fired: {:?}",
            report.coverage.never_fired_kinds(&report.expected_kinds)
        );
        // And the anomaly pass must be live: with aggressive thresholds,
        // 160 hostile schedules fire at least a few detectors.
        assert!(
            !report.coverage.anomalies.is_empty(),
            "no detector fired over 160 runs: {:?}",
            report.coverage
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
