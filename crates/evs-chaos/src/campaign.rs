//! Chaos campaigns: seeded sweeps of generated fault plans, with
//! coverage accounting and automatic shrinking of any failure into a
//! replayable counterexample.

use crate::corpus::Coverage;
use crate::gen::ScenarioGen;
use crate::orchestrator::{ChaosFailure, ChaosOutcome, Orchestrator};
use crate::plan::FaultPlan;
use crate::shrink::Shrinker;
use evs_inspect::{AnomalyConfig, InspectReport};
use evs_telemetry::{names, Exposition, Telemetry, TelemetryEvent};

/// A failing plan, its shrunken form, and what it violates — everything
/// needed to file (and replay) a bug.
#[derive(Clone, Debug)]
pub struct CounterExample {
    /// Seed the failing plan was generated from.
    pub seed: u64,
    /// The original generated plan.
    pub original: FaultPlan,
    /// The minimized plan (still violating `target_spec`).
    pub shrunk: FaultPlan,
    /// The failure of the original run.
    pub failure: ChaosFailure,
    /// The property the shrink chased (see
    /// [`ChaosFailure::primary_spec`]).
    pub target_spec: String,
    /// Oracle runs the minimization spent.
    pub shrink_checks: u32,
}

impl CounterExample {
    /// Renders the repro artifact: the shrunken plan plus comment lines
    /// recording the violated properties and provenance. Feed the file
    /// back through [`FaultPlan::from_text`] to replay.
    pub fn artifact(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# evs-chaos counterexample (generated from seed {})\n",
            self.seed
        ));
        out.push_str(&format!("# violates: {}\n", self.failure.specs.join(", ")));
        out.push_str(&format!("# shrink target: {}\n", self.target_spec));
        out.push_str(&format!(
            "# shrunk {} -> {} step(s) in {} check(s)\n",
            self.original.steps.len(),
            self.shrunk.steps.len(),
            self.shrink_checks
        ));
        out.push_str(&self.shrunk.to_text());
        out
    }
}

/// Aggregate numbers of a campaign.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Plans executed.
    pub runs: u64,
    /// Plans executed on the live threaded driver.
    pub live_runs: u64,
    /// Plans that violated a property (or failed to settle).
    pub failures: u64,
    /// Total schedule steps executed.
    pub steps: u64,
    /// What the executed plans exercised.
    pub coverage: Coverage,
}

/// Configuration of a [`Campaign`].
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Stop at the first failure instead of sweeping every seed.
    pub stop_on_failure: bool,
    /// Shrink failing plans (disable for raw triage speed).
    pub shrink: bool,
    /// Emit a `chaos_progress` heartbeat (telemetry event + stderr line)
    /// every this many seeds, so long `CHAOS_ITERS` soaks are observable
    /// instead of silent for minutes. `0` disables the heartbeat.
    pub progress_every: u64,
    /// Worker threads executing plans (`<= 1` runs on the caller's
    /// thread). Seeds are striped across the workers and the results
    /// merged back in iteration order, so stats, coverage, telemetry,
    /// artifacts — and, under `stop_on_failure`, *which* failure is kept
    /// (the earliest iteration) — do not depend on the worker count or
    /// on thread timing.
    pub jobs: usize,
    /// Every `live_every`-th plan runs on the live multi-threaded driver
    /// ([`Orchestrator::run_live`]) instead of the deterministic
    /// simulator: `0` never, `1` every plan. A plan the live driver cannot
    /// run (broker steps) runs on the simulator instead and is not counted
    /// as a live run. A live failure is shrunk on the live driver —
    /// slower, and subject to real scheduling nondeterminism.
    pub live_every: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            stop_on_failure: true,
            shrink: true,
            progress_every: 100,
            jobs: 1,
            live_every: 0,
        }
    }
}

/// Thresholds of the per-run anomaly pass. Deliberately *aggressive* —
/// far below `AnomalyConfig::default()` — because coverage measures
/// whether detectors *can* fire under hostile schedules, not whether a
/// production run is sick.
const COVERAGE_ANOMALY: AnomalyConfig = AnomalyConfig {
    starvation_factor: 2,
    starvation_min_ticks: 20,
    hole_storm_threshold: 4,
    obligation_growth_run: 2,
    retx_storm_threshold: 4,
    retx_storm_factor: 1,
};

/// One executed plan, before the deterministic merge.
struct PlanRun {
    i: u64,
    seed: u64,
    live: bool,
    plan: FaultPlan,
    /// The anomaly detectors that fired on this run.
    anomalies: Vec<&'static str>,
    failure: Option<ChaosFailure>,
}

/// Runs `plan` on the live threaded driver or the simulator.
fn run_on(orchestrator: &Orchestrator, plan: &FaultPlan, live: bool) -> ChaosOutcome {
    if live {
        orchestrator
            .run_live(plan)
            .expect("live-compatible plans validate")
    } else {
        orchestrator.run_sim(plan)
    }
}

/// A seeded sweep: generate plan, run, check, count coverage, shrink on
/// failure.
///
/// The campaign carries its own harness-level [`Telemetry`] handle;
/// chaos run/violation/shrink events land in the same metrics/flight
/// recorder machinery as the protocol's own events, so a campaign's
/// snapshot reads like any process's.
#[derive(Clone, Debug)]
pub struct Campaign {
    generator: ScenarioGen,
    orchestrator: Orchestrator,
    shrinker: Shrinker,
    config: CampaignConfig,
    telemetry: Telemetry,
}

impl Campaign {
    /// Builds a campaign from its parts. Keep the orchestrator's telemetry
    /// attached for the anomaly-detector ledger: it reads each run's
    /// flight-recorder dumps, and a detached orchestrator records none.
    pub fn new(
        generator: ScenarioGen,
        orchestrator: Orchestrator,
        shrinker: Shrinker,
        config: CampaignConfig,
    ) -> Self {
        Campaign {
            generator,
            orchestrator,
            shrinker,
            config,
            telemetry: Telemetry::enabled(0),
        }
    }

    /// The harness-level telemetry handle (chaos counters, flight
    /// recorder of recent campaign events).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// A snapshot of the harness-level telemetry.
    pub fn snapshot(&self) -> Exposition {
        self.telemetry
            .snapshot()
            .expect("a campaign's telemetry is always enabled")
    }

    /// Runs `iterations` seeds starting at `base_seed` (seed `base_seed +
    /// i` for iteration `i` — campaigns are fully described by those two
    /// numbers). Returns the stats and every counterexample found.
    ///
    /// The seeds are striped across [`CampaignConfig::jobs`] workers;
    /// each executes its shard in iteration order (stopping at its own
    /// first failure under `stop_on_failure`), and the merge replays the
    /// executed runs in global iteration order — the same counters,
    /// heartbeats, coverage and counterexamples whatever the worker count,
    /// wall-clock divided by it.
    pub fn run(&self, base_seed: u64, iterations: u64) -> (CampaignStats, Vec<CounterExample>) {
        let jobs = self.config.jobs.max(1).min(iterations.max(1) as usize);
        self.merge(self.run_shards(base_seed, iterations, jobs), iterations)
    }

    /// Executes iteration `i`: generate, run on its driver, and pass the
    /// flight dumps through the anomaly detectors.
    fn execute(&self, i: u64, seed: u64) -> PlanRun {
        let plan = self.generator.plan(seed);
        let every = self.config.live_every;
        let live = every > 0 && (i + 1).is_multiple_of(every) && plan.live_compatible();
        let outcome = run_on(&self.orchestrator, &plan, live);
        // Two frames per run: the pre-heal one, where fault-induced
        // anomalies are still visible (a stuck recovery, an undelivered
        // message), and the end-of-run one, where only what survived the
        // heal remains. Coverage counts a detector once per run.
        let mut anomalies: Vec<&'static str> = Vec::new();
        for frame in [&outcome.mid, &outcome.end] {
            if frame.dumps.is_empty() {
                continue;
            }
            let report = InspectReport::analyze_with(&frame.trace, &frame.dumps, &COVERAGE_ANOMALY);
            for a in report.anomalies {
                if !anomalies.contains(&a.kind) {
                    anomalies.push(a.kind);
                }
            }
        }
        PlanRun {
            i,
            seed,
            live,
            plan,
            anomalies,
            failure: outcome.failure,
        }
    }

    /// Stripes the seed range over `jobs` workers — worker `w` executes
    /// iterations `w, w + jobs, w + 2·jobs, …` in order, stopping at its
    /// shard's first failure under `stop_on_failure` — and returns every
    /// executed run sorted by iteration. One worker runs on the caller's
    /// thread; more run as scoped threads. No worker signals another:
    /// each shard's executed set depends only on the seeds, so the merged
    /// result is deterministic whatever the thread timing. Progress lines
    /// (stderr only) come from a shared counter so a long soak stays
    /// observable in real time.
    fn run_shards(&self, base_seed: u64, iterations: u64, jobs: usize) -> Vec<PlanRun> {
        use std::sync::atomic::{AtomicU64, Ordering};
        let done = AtomicU64::new(0);
        let failed_so_far = AtomicU64::new(0);
        let shard = |w: usize| {
            let mut out = Vec::new();
            let mut i = w as u64;
            while i < iterations {
                let run = self.execute(i, base_seed.wrapping_add(i));
                let failed = run.failure.is_some();
                out.push(run);
                if failed {
                    failed_so_far.fetch_add(1, Ordering::Relaxed);
                }
                let d = done.fetch_add(1, Ordering::Relaxed) + 1;
                let every = self.config.progress_every;
                if every != 0 && d.is_multiple_of(every) {
                    let failures = failed_so_far.load(Ordering::Relaxed);
                    // Live progress for the obs plane too: a campaign
                    // scraped via `evs-top --obs` shows these gauges
                    // advancing. Same-value races between shards are
                    // harmless (both write a value that was true when
                    // read).
                    self.set_progress_gauges(d, iterations, failures);
                    eprintln!("chaos progress: {d}/{iterations} plan(s), {failures} failure(s)");
                }
                if failed && self.config.stop_on_failure {
                    break;
                }
                i += jobs as u64;
            }
            out
        };
        if jobs == 1 {
            return shard(0);
        }
        let mut runs: Vec<PlanRun> = Vec::new();
        std::thread::scope(|s| {
            let shard = &shard;
            let workers: Vec<_> = (0..jobs).map(|w| s.spawn(move || shard(w))).collect();
            for worker in workers {
                runs.extend(worker.join().expect("campaign worker panicked"));
            }
        });
        runs.sort_by_key(|r| r.i);
        runs
    }

    /// Replays executed runs in iteration order: stats, coverage,
    /// telemetry events, shrinking. Under `stop_on_failure`, runs after
    /// the earliest failing iteration (executed by other shards before
    /// their own stop) are discarded; every iteration up to that one was
    /// executed by some shard, so the result is a stop at that iteration.
    fn merge(&self, runs: Vec<PlanRun>, iterations: u64) -> (CampaignStats, Vec<CounterExample>) {
        let mut stats = CampaignStats::default();
        stats.coverage.expected_kinds = self.generator.config().mix.generable_kinds();
        let mut found = Vec::new();
        for run in runs {
            let PlanRun {
                i,
                seed,
                live,
                plan,
                anomalies,
                failure,
            } = run;
            stats.runs += 1;
            stats.live_runs += live as u64;
            stats.steps += plan.steps.len() as u64;
            stats.coverage.count(&plan, &anomalies);
            self.telemetry.record(
                i,
                TelemetryEvent::ChaosRunExecuted {
                    seed,
                    steps: plan.steps.len() as u32,
                    failed: failure.is_some(),
                },
            );
            if let Some(failure) = failure {
                stats.failures += 1;
                self.telemetry.record(
                    i,
                    TelemetryEvent::ChaosViolationFound {
                        seed,
                        specs: failure.specs.len() as u32,
                    },
                );
                found.push(self.shrink(i, seed, plan, failure, live));
                if self.config.stop_on_failure {
                    break;
                }
            }
            // The workers already printed progress live; only the
            // telemetry event is replayed here.
            self.heartbeat(i, stats.runs, iterations, stats.failures);
        }
        (stats, found)
    }

    /// Records the periodic campaign heartbeat when `done` crosses a
    /// `progress_every` boundary.
    fn heartbeat(&self, at: u64, done: u64, total: u64, failures: u64) {
        let every = self.config.progress_every;
        if every == 0 || done == 0 || !done.is_multiple_of(every) {
            return;
        }
        self.telemetry.record(
            at,
            TelemetryEvent::ChaosProgress {
                done,
                total,
                failures,
            },
        );
        self.set_progress_gauges(done, total, failures);
    }

    /// Mirrors campaign progress into gauges so the live observability
    /// plane (an `ObsResponder` scraping this campaign's telemetry) sees
    /// it without parsing stderr. Setting a gauge is idempotent, so the
    /// merge replaying heartbeats stays deterministic.
    fn set_progress_gauges(&self, done: u64, total: u64, failures: u64) {
        self.telemetry
            .gauge(names::CHAOS_CAMPAIGN_DONE)
            .set(done as i64);
        self.telemetry
            .gauge(names::CHAOS_CAMPAIGN_TOTAL)
            .set(total as i64);
        self.telemetry
            .gauge(names::CHAOS_CAMPAIGN_FAILURES)
            .set(failures as i64);
    }

    /// Shrinks one failing plan into a [`CounterExample`] on the driver it
    /// failed on (identity shrink when shrinking is disabled).
    fn shrink(
        &self,
        at: u64,
        seed: u64,
        plan: FaultPlan,
        failure: ChaosFailure,
        live: bool,
    ) -> CounterExample {
        let target_spec = failure.primary_spec().to_string();
        let (shrunk, checks) = if self.config.shrink {
            let result = self.shrinker.shrink(&plan, |candidate| {
                run_on(&self.orchestrator, candidate, live)
                    .failure
                    .is_some_and(|f| f.specs.contains(&target_spec))
            });
            (result.plan, result.checks)
        } else {
            (plan.clone(), 0)
        };
        self.telemetry.record(
            at,
            TelemetryEvent::ChaosPlanShrunk {
                from_steps: plan.steps.len() as u32,
                to_steps: shrunk.steps.len() as u32,
                checks,
            },
        );
        CounterExample {
            seed,
            original: plan,
            shrunk,
            failure,
            target_spec,
            shrink_checks: checks,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gen::{FaultMix, GenConfig};

    /// A keep-going sweep of small factory-mix plans with telemetry
    /// attached, so every coverage ledger fills in.
    pub(crate) fn factory_campaign(jobs: usize) -> Campaign {
        let cfg = GenConfig {
            n: 3,
            max_steps: 6,
            max_run: 800,
            mix: FaultMix::factory(),
        };
        Campaign::new(
            ScenarioGen::new(cfg),
            Orchestrator::default(),
            Shrinker::default(),
            CampaignConfig {
                stop_on_failure: false,
                progress_every: 4,
                jobs,
                ..CampaignConfig::default()
            },
        )
    }

    #[test]
    fn small_campaign_on_the_correct_engine_is_clean() {
        let cfg = GenConfig {
            n: 3,
            max_steps: 6,
            max_run: 1_000,
            ..GenConfig::default()
        };
        let campaign = Campaign::new(
            ScenarioGen::new(cfg),
            Orchestrator::detached(),
            Shrinker::default(),
            CampaignConfig::default(),
        );
        let (stats, found) = campaign.run(7_000, 8);
        assert_eq!(stats.runs, 8);
        assert_eq!(stats.failures, 0, "{found:?}");
        let counters = campaign.snapshot().counters;
        assert_eq!(counters["chaos_runs"], 8);
        assert_eq!(counters.get("chaos_violations").copied().unwrap_or(0), 0);
        // A detached orchestrator records no dumps: no detector ledger.
        assert!(stats.coverage.anomalies.is_empty());
    }

    #[test]
    fn the_sweep_does_not_depend_on_the_worker_count() {
        let one = factory_campaign(1);
        let three = factory_campaign(3);
        let (stats_one, found_one) = one.run(0xFAC7_1000, 9);
        let (stats_three, found_three) = three.run(0xFAC7_1000, 9);
        assert_eq!(stats_one, stats_three);
        assert_eq!(stats_one.coverage, stats_three.coverage);
        assert!(!stats_one.coverage.kinds.is_empty());
        let seeds = |found: &[CounterExample]| found.iter().map(|c| c.seed).collect::<Vec<_>>();
        assert_eq!(seeds(&found_one), seeds(&found_three));
        assert_eq!(one.snapshot(), three.snapshot());
    }

    #[test]
    fn live_slots_run_broker_plans_on_the_simulator() {
        let cfg = GenConfig {
            n: 3,
            mix: FaultMix::broker_chaos(),
            ..GenConfig::default()
        };
        let gen = ScenarioGen::new(cfg);
        let base = 2;
        assert!((base..base + 2).all(|seed| gen.plan(seed).has_broker_steps()));
        let campaign = Campaign::new(
            gen,
            Orchestrator::detached(),
            Shrinker::default(),
            CampaignConfig {
                live_every: 1,
                ..CampaignConfig::default()
            },
        );
        let (stats, found) = campaign.run(base, 2);
        assert_eq!(stats.runs, 2);
        assert_eq!(stats.live_runs, 0);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn parallel_stop_on_failure_keeps_the_earliest_counterexample() {
        // A synthetic check of the merge rule itself: hand the merge
        // shard results with two failures and verify only the earliest
        // survives, with stats cut at that iteration.
        let campaign = Campaign::new(
            ScenarioGen::new(GenConfig::default()),
            Orchestrator::detached(),
            Shrinker::default(),
            CampaignConfig {
                shrink: false,
                ..CampaignConfig::default()
            },
        );
        let gen = ScenarioGen::new(GenConfig::default());
        let run = |i: u64, specs: &[&str]| PlanRun {
            i,
            seed: 100 + i,
            live: false,
            plan: gen.plan(100 + i),
            anomalies: Vec::new(),
            failure: (!specs.is_empty()).then(|| ChaosFailure {
                specs: specs.iter().map(|s| s.to_string()).collect(),
                details: "synthetic".to_string(),
            }),
        };
        let runs = vec![run(0, &[]), run(1, &[]), run(2, &["3"]), run(5, &["6.1"])];
        let (stats, found) = campaign.merge(runs, 6);
        assert_eq!(stats.runs, 3); // iterations 0, 1, 2 — nothing after the cut
        assert_eq!(stats.failures, 1);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].seed, 102);
        assert_eq!(found[0].target_spec, "3");
    }

    #[test]
    fn counterexample_artifact_replays() {
        let campaign = Campaign::new(
            ScenarioGen::new(GenConfig::default()),
            Orchestrator::detached(),
            Shrinker::default(),
            CampaignConfig {
                shrink: false,
                ..CampaignConfig::default()
            },
        );
        let plan = ScenarioGen::new(GenConfig::default()).plan(3);
        let failure = ChaosFailure {
            specs: vec!["3".to_string(), "6.1".to_string()],
            details: "synthetic".to_string(),
        };
        let ce = campaign.shrink(0, 3, plan.clone(), failure, false);
        let replayed = FaultPlan::from_text(&ce.artifact()).unwrap();
        assert_eq!(replayed, plan);
        assert_eq!(ce.target_spec, "3");
    }
}
