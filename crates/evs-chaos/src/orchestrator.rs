//! Executes fault plans against the protocol stack and runs the full
//! conformance suite on the resulting trace.
//!
//! The simulator path ([`Orchestrator::run_sim`]) supports the entire step
//! vocabulary and is deterministic; the live-thread path
//! ([`Orchestrator::run_live`]) supports the same vocabulary — the
//! network knobs (`DropPct`, `Delay`) map onto the live driver's per-link
//! [`LinkFault`] policies — and exists to show the same plans exercising
//! the same code under real concurrency, with faults interleaving real
//! thread schedules.
//!
//! "Conformance" here is everything the workspace can check: the EVS
//! specifications 1.1–7.2 (with flight-recorder dumps attached on
//! violation), the §2.2 primary-component properties, and the §5 reduction
//! to virtual synchrony.

use crate::plan::{BitTarget, FaultPlan, FaultStep, PlanError};
use evs_broker::{BrokerCluster, BrokerClusterConfig};
use evs_core::checker;
use evs_core::{CorruptionKind, EvsCluster, EvsProcess, Payload, Trace};
use evs_inspect::collect_dumps;
use evs_runtime::{Cluster, LinkFault, TICK};
use evs_sim::{Action, NetConfig, ProcessId};
use evs_telemetry::{RecordedEvent, RunReport, Telemetry};
use evs_vs::{check_vs, filter_trace, MajorityPrimary, PrimaryHistory};
use std::time::Duration;

/// Why a chaos run failed: the distinct properties violated, plus the full
/// human-readable report (violations and flight-recorder dumps).
#[derive(Clone, Debug)]
pub struct ChaosFailure {
    /// Sorted, deduplicated identifiers of the violated properties:
    /// specification numbers (`"3"`, `"6.1"`), `"primary-1"`/`"primary-2"`,
    /// `"vs:C1"`…`"vs:L5"`, `"broker-dedup"`/`"broker-ack"` for the
    /// broker path's exactly-once invariants, or `"settle"` for a cluster
    /// that never re-stabilized.
    pub specs: Vec<String>,
    /// The rendered failure: every violation, then any flight-recorder
    /// dumps.
    pub details: String,
}

impl ChaosFailure {
    /// The canonical target of shrinking: the lexicographically smallest
    /// violated property.
    pub fn primary_spec(&self) -> &str {
        self.specs.first().map(String::as_str).unwrap_or("")
    }
}

/// Per-process flight-recorder dumps, keyed by process index.
pub type ProcessDumps = Vec<(u32, Vec<RecordedEvent>)>;

/// The result of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// True if the cluster re-stabilized inside the settle budget after
    /// the final heal.
    pub settled: bool,
    /// The conformance failure, if any (`"settle"` when `!settled`).
    pub failure: Option<ChaosFailure>,
    /// Aggregated per-process telemetry (empty when telemetry is off).
    pub report: RunReport,
    /// Per-process flight-recorder dumps (empty when telemetry is off) —
    /// raw material for `evs-inspect` timeline and anomaly analysis of
    /// this run, e.g. the factory's detector-coverage accounting.
    pub dumps: ProcessDumps,
    /// Flight-recorder dumps captured *between the last plan step and the
    /// heal* (empty when telemetry is off). The end-of-run dumps above see
    /// a healed cluster, and several anomaly detectors key on the state a
    /// recording *ends* in (a recovery still stuck, a message still
    /// undelivered, an obligation set still growing) — anomalies the heal
    /// legitimately erases. This mid-run frame is where they are visible.
    pub mid_dumps: ProcessDumps,
}

impl ChaosOutcome {
    /// True if this run found anything wrong.
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// Applies [`FaultPlan`]s to the stack and checks the execution.
#[derive(Clone, Debug)]
pub struct Orchestrator {
    /// Ticks allowed for initial group formation.
    pub formation_budget: u64,
    /// Ticks allowed for the final heal-and-settle phase.
    pub settle_budget: u64,
    /// Attach per-process telemetry (flight recorder in failure reports,
    /// run reports on outcomes). Costs a little speed.
    pub telemetry: bool,
}

impl Default for Orchestrator {
    fn default() -> Self {
        Orchestrator {
            formation_budget: 300_000,
            settle_budget: 2_000_000,
            telemetry: true,
        }
    }
}

/// The components a `Split` step describes: element `i` of `labels` is
/// the group of process `i`; groups nobody is in are left out.
fn components(labels: &[u8]) -> Vec<Vec<ProcessId>> {
    let count = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
    let mut groups = vec![Vec::new(); count];
    for (i, &l) in labels.iter().enumerate() {
        groups[l as usize].push(ProcessId::new(i as u32));
    }
    groups.retain(|g| !g.is_empty());
    groups
}

/// Decodes a corruption-class step into its target process and the
/// engine-level injection. `None` for every other step kind.
fn corruption(step: &FaultStep) -> Option<(u8, CorruptionKind)> {
    Some(match step {
        FaultStep::BitFlip { p, target, bit } => {
            let bit = *bit as u32;
            let kind = match target {
                BitTarget::Aru => CorruptionKind::AruBit(bit),
                BitTarget::Seq => CorruptionKind::SeqBit(bit),
                BitTarget::Counter => CorruptionKind::CounterBit(bit),
            };
            (*p, kind)
        }
        FaultStep::SeqWrap(p) => (*p, CorruptionKind::SeqWrap),
        FaultStep::ConfDesync(p) => (*p, CorruptionKind::ConfDesync),
        FaultStep::WalByte { p, record, offset } => (
            *p,
            CorruptionKind::WalByte {
                record: *record as u64,
                offset: *offset as u64,
            },
        ),
        FaultStep::WalTrunc { p, bytes } => (
            *p,
            CorruptionKind::WalTrunc {
                bytes: *bytes as u64,
            },
        ),
        _ => return None,
    })
}

impl Orchestrator {
    /// An orchestrator with telemetry detached — the fastest configuration
    /// for large campaigns where only the verdict matters.
    pub fn detached() -> Self {
        Orchestrator {
            telemetry: false,
            ..Orchestrator::default()
        }
    }

    /// Builds a cluster, applies every step of `plan`, heals the network
    /// (drop/latency reset, merge, recover), and lets it settle. Returns
    /// the cluster and whether it settled — the raw material for both
    /// [`Orchestrator::run_sim`] and trace-comparison tests.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn execute(&self, plan: &FaultPlan) -> (EvsCluster<String>, bool) {
        let (cluster, settled, _) = self.execute_observed(plan);
        (cluster, settled)
    }

    /// [`Orchestrator::execute`], also returning the flight-recorder dumps
    /// captured between the last plan step and the heal (see
    /// [`ChaosOutcome::mid_dumps`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn execute_observed(&self, plan: &FaultPlan) -> (EvsCluster<String>, bool, ProcessDumps) {
        plan.validate().expect("fault plan must validate");
        let n = plan.n as usize;
        let mut cluster = EvsCluster::<String>::builder(n)
            .net(NetConfig {
                seed: plan.seed,
                ..NetConfig::default()
            })
            .telemetry(self.telemetry)
            .build();
        cluster.run_until_settled(self.formation_budget);
        let mut down = vec![false; n];
        let mut msg = 0u32;
        for step in &plan.steps {
            match step {
                FaultStep::Split(labels) => {
                    let groups = components(labels);
                    let groups: Vec<&[ProcessId]> = groups.iter().map(Vec::as_slice).collect();
                    cluster.partition(&groups);
                }
                FaultStep::Merge => cluster.merge_all(),
                FaultStep::Crash(i) => {
                    cluster.crash(ProcessId::new(*i as u32));
                    down[*i as usize] = true;
                }
                FaultStep::Kill(i) => {
                    cluster.kill(ProcessId::new(*i as u32));
                    down[*i as usize] = true;
                }
                FaultStep::Recover(i) | FaultStep::Restart(i) => {
                    cluster.recover(ProcessId::new(*i as u32));
                    down[*i as usize] = false;
                }
                FaultStep::DropPct(pct) => {
                    cluster
                        .sim_mut()
                        .apply(Action::SetDropProb(*pct as f64 / 100.0));
                }
                FaultStep::Delay(lo, hi) => {
                    cluster.sim_mut().apply(Action::SetLatency(*lo, *hi));
                }
                FaultStep::Mcast {
                    from,
                    count,
                    service,
                } => {
                    if !down[*from as usize] {
                        for _ in 0..*count {
                            msg += 1;
                            cluster.submit(
                                ProcessId::new(*from as u32),
                                *service,
                                format!("c{msg}"),
                            );
                        }
                    }
                }
                FaultStep::Run(t) => cluster.run_for(*t as u64),
                // Meaningless without the broker front-end; plans carrying
                // them are dispatched to `execute_broker` by `run_sim`, so
                // a direct `execute` call just skips them.
                FaultStep::BrokerKill(_) | FaultStep::BrokerReconnect(_) => {}
                FaultStep::BitFlip { .. }
                | FaultStep::SeqWrap(_)
                | FaultStep::ConfDesync(_)
                | FaultStep::WalByte { .. }
                | FaultStep::WalTrunc { .. } => {
                    let (p, kind) = corruption(step).expect("corruption step decodes");
                    if !down[p as usize] {
                        cluster
                            .sim_mut()
                            .invoke(ProcessId::new(p as u32), move |node, _ctx| {
                                node.inject_corruption(kind)
                            });
                    }
                }
            }
        }
        // The anomalies the injected faults caused are about to be healed
        // away; photograph them first.
        let mid_dumps = collect_dumps(&cluster.telemetry_handles());
        // Heal everything so the liveness-flavored specifications apply:
        // a correct engine must always re-stabilize from here.
        cluster.sim_mut().apply(Action::SetDropProb(0.0));
        let default_net = NetConfig::default();
        cluster.sim_mut().apply(Action::SetLatency(
            default_net.latency_min,
            default_net.latency_max,
        ));
        cluster.merge_all();
        for i in 0..n {
            cluster.recover(ProcessId::new(i as u32));
        }
        let settled = cluster.run_until_settled(self.settle_budget);
        (cluster, settled, mid_dumps)
    }

    /// Builds a broker-fronted cluster (one broker per daemon), applies
    /// every step of `plan` with `Mcast` reinterpreted as client ops
    /// through the broker pipeline, heals everything (network knobs,
    /// merge, daemon recovery, broker reconnection — the reconnects replay
    /// unacked ops through the dedup ledgers), and drains the pipeline.
    /// Returns the harness and whether the daemon group settled.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn execute_broker(&self, plan: &FaultPlan) -> (BrokerCluster, bool) {
        let (bc, settled, _) = self.execute_broker_observed(plan);
        (bc, settled)
    }

    /// [`Orchestrator::execute_broker`], also returning the pre-heal
    /// flight-recorder dumps (see [`ChaosOutcome::mid_dumps`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn execute_broker_observed(&self, plan: &FaultPlan) -> (BrokerCluster, bool, ProcessDumps) {
        plan.validate().expect("fault plan must validate");
        let n = plan.n as usize;
        let mut bc = BrokerCluster::new(BrokerClusterConfig {
            daemons: n,
            brokers: n,
            seed: plan.seed,
            telemetry: self.telemetry,
            ..BrokerClusterConfig::default()
        });
        bc.form(self.formation_budget);
        let mut down = vec![false; n];
        let mut msg = 0u32;
        for step in &plan.steps {
            match step {
                FaultStep::Split(labels) => {
                    let groups = components(labels);
                    let groups: Vec<&[ProcessId]> = groups.iter().map(Vec::as_slice).collect();
                    bc.partition(&groups);
                }
                FaultStep::Merge => bc.merge_all(),
                FaultStep::Crash(i) => {
                    bc.crash(ProcessId::new(*i as u32));
                    down[*i as usize] = true;
                }
                FaultStep::Kill(i) => {
                    bc.kill(ProcessId::new(*i as u32));
                    down[*i as usize] = true;
                }
                FaultStep::Recover(i) | FaultStep::Restart(i) => {
                    bc.recover(ProcessId::new(*i as u32));
                    down[*i as usize] = false;
                }
                FaultStep::DropPct(pct) => bc.set_drop_prob(*pct as f64 / 100.0),
                FaultStep::Delay(lo, hi) => bc.set_latency(*lo, *hi),
                FaultStep::Mcast { from, count, .. } => {
                    // Client ops through broker `from`; a dead or
                    // backpressuring broker drops the burst, like a down
                    // process on the daemon path. One client per broker
                    // keeps per-client sequences long enough to replay.
                    let client = 100 + *from as u64;
                    for _ in 0..*count {
                        msg += 1;
                        let op = Payload::from(msg.to_be_bytes().to_vec());
                        let _ = bc.submit(*from as usize, client, op);
                    }
                }
                FaultStep::Run(t) => bc.pump(*t as u64),
                FaultStep::BrokerKill(b) => bc.kill_broker(*b as usize),
                FaultStep::BrokerReconnect(b) => {
                    let _ = bc.reconnect_broker(*b as usize);
                }
                FaultStep::BitFlip { .. }
                | FaultStep::SeqWrap(_)
                | FaultStep::ConfDesync(_)
                | FaultStep::WalByte { .. }
                | FaultStep::WalTrunc { .. } => {
                    let (p, kind) = corruption(step).expect("corruption step decodes");
                    if !down[p as usize] {
                        bc.cluster_mut()
                            .sim_mut()
                            .invoke(ProcessId::new(p as u32), move |node, _ctx| {
                                node.inject_corruption(kind)
                            });
                    }
                }
            }
        }
        // Photograph the pre-heal anomalies (see ChaosOutcome::mid_dumps).
        let mut mid_dumps = collect_dumps(&bc.daemon_telemetry());
        mid_dumps.extend(collect_dumps(bc.broker_telemetry()));
        // Heal everything so the liveness-flavored specifications apply —
        // and reconnect every dead broker, which resubmits its unacked
        // ops: the replay the dedup ledgers must absorb exactly once.
        bc.set_drop_prob(0.0);
        let default_net = NetConfig::default();
        bc.set_latency(default_net.latency_min, default_net.latency_max);
        bc.merge_all();
        for i in 0..n {
            bc.recover(ProcessId::new(i as u32));
        }
        for b in 0..n {
            if !bc.broker_alive(b) {
                let _ = bc.reconnect_broker(b);
            }
        }
        let mut settled = bc.cluster_mut().run_until_settled(self.settle_budget);
        // Drain the client pipeline: flush still-pending batches, deliver
        // them, apply through the ledgers and route the replies.
        bc.pump(20_000);
        settled = settled && bc.cluster_mut().run_until_settled(self.settle_budget);
        bc.pump(256);
        (bc, settled, mid_dumps)
    }

    /// Runs `plan` on the broker client path and checks the full
    /// conformance suite plus the broker exactly-once invariants:
    /// `"broker-dedup"` (a daemon ledger applied the same client op
    /// twice) and `"broker-ack"` (a reply was routed for an op no daemon
    /// applied).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn run_broker(&self, plan: &FaultPlan) -> ChaosOutcome {
        let (bc, settled, mid_dumps) = self.execute_broker_observed(plan);
        let handles = bc.daemon_telemetry();
        let mut all = handles.clone();
        all.extend(bc.broker_telemetry().iter().cloned());
        let report = RunReport::collect(&all);
        let dumps = collect_dumps(&all);
        let failure = if settled {
            let mut specs: Vec<String> = Vec::new();
            let mut details = String::new();
            if let Some(f) = conformance(&bc.trace(), &handles, plan.n as usize) {
                specs.extend(f.specs);
                details.push_str(&f.details);
            }
            let dups = bc.duplicate_applications();
            if !dups.is_empty() {
                specs.push("broker-dedup".to_string());
                details.push_str(&format!(
                    "exactly-once violated: {} duplicate application(s) \
                     (daemon, client, seq), first: {:?}\n",
                    dups.len(),
                    &dups[..dups.len().min(8)]
                ));
            }
            let ghosts = bc.acked_never_applied();
            if !ghosts.is_empty() {
                specs.push("broker-ack".to_string());
                details.push_str(&format!(
                    "{} reply(ies) routed for ops no daemon applied, first: {:?}\n",
                    ghosts.len(),
                    &ghosts[..ghosts.len().min(8)]
                ));
            }
            if specs.is_empty() {
                None
            } else {
                Some(finish(specs, details))
            }
        } else {
            Some(ChaosFailure {
                specs: vec!["settle".to_string()],
                details: format!(
                    "broker-fronted cluster failed to re-stabilize within {} ticks after healing",
                    self.settle_budget
                ),
            })
        };
        ChaosOutcome {
            settled,
            failure,
            report,
            dumps,
            mid_dumps,
        }
    }

    /// Runs `plan` under the deterministic simulator and checks the full
    /// conformance suite. Plans containing broker steps are dispatched to
    /// [`Orchestrator::run_broker`] — the whole generated plan space runs
    /// through this one entry point.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn run_sim(&self, plan: &FaultPlan) -> ChaosOutcome {
        if plan.has_broker_steps() {
            return self.run_broker(plan);
        }
        let (cluster, settled, mid_dumps) = self.execute_observed(plan);
        let handles = cluster.telemetry_handles();
        let report = RunReport::collect(&handles);
        let dumps = collect_dumps(&handles);
        let failure = if settled {
            conformance(&cluster.trace(), &handles, plan.n as usize)
        } else {
            Some(ChaosFailure {
                specs: vec!["settle".to_string()],
                details: format!(
                    "cluster failed to re-stabilize within {} ticks after healing",
                    self.settle_budget
                ),
            })
        };
        ChaosOutcome {
            settled,
            failure,
            report,
            dumps,
            mid_dumps,
        }
    }

    /// Runs `plan` on a live [`Cluster`] over the in-memory medium — same
    /// state machines, real threads and real time — and checks the same
    /// conformance suite. `Run` steps become wall-clock sleeps (one
    /// [`TICK`] per tick); `DropPct` and `Delay` steps reconfigure every
    /// inter-node link's [`LinkFault`] policy mid-run, seeded from the
    /// plan seed.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] if the plan fails
    /// [`FaultPlan::validate`], or if it contains broker steps (the
    /// broker client path is simulator-only — see
    /// [`FaultStep::live_supported`]).
    pub fn run_live(&self, plan: &FaultPlan) -> Result<ChaosOutcome, PlanError> {
        plan.validate()?;
        if !plan.live_compatible() {
            return Err(PlanError {
                line: 0,
                detail:
                    "broker steps are simulator-only; the live driver has no broker client path"
                        .to_string(),
            });
        }
        let n = plan.n as usize;
        let net = Cluster::in_memory(n, self.telemetry);
        let faults = net.faults();
        faults.set_seed(plan.seed);
        let settled_with = |k: usize| {
            move |node: &EvsProcess<Payload>| {
                node.is_settled() && node.current_config().members.len() == k
            }
        };
        let formed = net.wait_until(Duration::from_secs(20), settled_with(n));
        let mut msg = 0u32;
        // The simulator's drop and latency knobs are independent global
        // settings; mirror that with one net-wide link policy that either
        // step updates its own part of.
        let mut policy = LinkFault::default();
        if formed {
            for step in &plan.steps {
                match step {
                    FaultStep::Split(labels) => faults.partition(&components(labels)),
                    FaultStep::Merge => faults.merge_all(),
                    FaultStep::Crash(i) => net.crash(ProcessId::new(*i as u32)),
                    FaultStep::Kill(i) => net.kill(ProcessId::new(*i as u32)),
                    FaultStep::Recover(i) | FaultStep::Restart(i) => {
                        net.recover(ProcessId::new(*i as u32));
                    }
                    FaultStep::DropPct(pct) => {
                        policy.drop_pct = *pct;
                        faults.set_all(policy);
                    }
                    FaultStep::Delay(lo, hi) => {
                        (policy.delay_lo, policy.delay_hi) = (*lo, *hi);
                        faults.set_all(policy);
                    }
                    FaultStep::Mcast {
                        from,
                        count,
                        service,
                    } => {
                        // (A down process runs no command: nothing to skip.)
                        let service = *service;
                        for _ in 0..*count {
                            msg += 1;
                            let payload = Payload::from(format!("c{msg}").into_bytes());
                            net.invoke(ProcessId::new(*from as u32), move |node, ctx| {
                                node.submit(ctx, service, payload)
                            });
                        }
                    }
                    FaultStep::Run(t) => std::thread::sleep(TICK * *t),
                    FaultStep::BrokerKill(_) | FaultStep::BrokerReconnect(_) => {
                        unreachable!("run_live rejects broker plans up front")
                    }
                    FaultStep::BitFlip { .. }
                    | FaultStep::SeqWrap(_)
                    | FaultStep::ConfDesync(_)
                    | FaultStep::WalByte { .. }
                    | FaultStep::WalTrunc { .. } => {
                        let (p, kind) = corruption(step).expect("corruption step decodes");
                        net.invoke(ProcessId::new(p as u32), move |node, _ctx| {
                            node.inject_corruption(kind)
                        });
                    }
                }
            }
        }
        // Photograph the pre-heal anomalies (see ChaosOutcome::mid_dumps).
        let mid_dumps = collect_dumps(&net.telemetry_handles());
        // Heal everything, like the simulator path: perfect links again,
        // one component, everyone up. The liveness-flavored specifications
        // apply from here.
        faults.set_all(LinkFault::default());
        faults.merge_all();
        for i in 0..n {
            net.recover(ProcessId::new(i as u32));
        }
        let settled = formed && net.wait_until(Duration::from_secs(30), settled_with(n));
        let handles = net.telemetry_handles();
        let report = RunReport::collect(&handles);
        let dumps = collect_dumps(&handles);
        let trace = Trace::new(net.shutdown());
        let failure = if settled {
            conformance(&trace, &handles, n)
        } else {
            Some(ChaosFailure {
                specs: vec!["settle".to_string()],
                details: "live cluster failed to re-stabilize after healing".to_string(),
            })
        };
        Ok(ChaosOutcome {
            settled,
            failure,
            report,
            dumps,
            mid_dumps,
        })
    }
}

/// Runs the full conformance suite — EVS Specifications 1.1–7.2,
/// primary-component Uniqueness/Continuity, and the §5 VS reduction — over
/// a trace. Returns `None` when everything holds.
pub fn conformance(trace: &Trace, handles: &[Telemetry], n: usize) -> Option<ChaosFailure> {
    let mut specs: Vec<String> = Vec::new();
    let mut details = String::new();
    if let Err(failure) = checker::check_all_with_telemetry(trace, handles) {
        specs.extend(failure.violations.iter().map(|v| v.spec.to_string()));
        details.push_str(&failure.to_string());
        // The primary/VS layers assume a lawful EVS trace; checking them on
        // a broken one would only add noise.
        return Some(finish(specs, details));
    }
    let policy = MajorityPrimary::new(n);
    let history = PrimaryHistory::from_trace(trace, &policy);
    for v in history.check(trace) {
        specs.push(v.spec.to_string());
        details.push_str(&format!("{v}\n"));
    }
    for v in check_vs(&filter_trace(trace, &policy))
        .err()
        .unwrap_or_default()
    {
        specs.push(format!("vs:{}", v.property));
        details.push_str(&format!("{v}\n"));
    }
    if specs.is_empty() {
        None
    } else {
        Some(finish(specs, details))
    }
}

fn finish(mut specs: Vec<String>, details: String) -> ChaosFailure {
    specs.sort();
    specs.dedup();
    ChaosFailure { specs, details }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs_order::Service;

    fn quiet_plan() -> FaultPlan {
        FaultPlan {
            n: 3,
            seed: 11,
            steps: vec![
                FaultStep::Mcast {
                    from: 0,
                    count: 2,
                    service: Service::Safe,
                },
                FaultStep::Run(1_000),
            ],
        }
    }

    #[test]
    fn clean_plan_passes_conformance() {
        let outcome = Orchestrator::default().run_sim(&quiet_plan());
        assert!(outcome.settled);
        assert!(!outcome.failed(), "{:?}", outcome.failure);
        assert!(outcome.report.total("messages_sent") >= 2);
    }

    #[test]
    fn detached_orchestrator_reports_nothing() {
        let outcome = Orchestrator::detached().run_sim(&quiet_plan());
        assert!(!outcome.failed());
        assert!(outcome.report.is_empty());
    }

    #[test]
    fn execution_is_deterministic() {
        let plan = FaultPlan {
            n: 4,
            seed: 5,
            steps: vec![
                FaultStep::Split(vec![0, 1, 0, 1]),
                FaultStep::Mcast {
                    from: 0,
                    count: 3,
                    service: Service::Agreed,
                },
                FaultStep::DropPct(20),
                FaultStep::Run(800),
                FaultStep::Crash(3),
                FaultStep::Merge,
            ],
        };
        let orch = Orchestrator::detached();
        let (a, _) = orch.execute(&plan);
        let (b, _) = orch.execute(&plan);
        assert_eq!(a.trace().events, b.trace().events);
    }

    #[test]
    fn kill_restart_plan_passes_conformance() {
        // A process is killed mid-traffic (no farewell callback) and later
        // restarted: its write-ahead log must supply the fail_p(c) it never
        // recorded and a fresh, monotone epoch, and the whole run must
        // still satisfy the conformance suite.
        let plan = FaultPlan {
            n: 3,
            seed: 21,
            steps: vec![
                FaultStep::Mcast {
                    from: 0,
                    count: 2,
                    service: Service::Safe,
                },
                FaultStep::Run(1_000),
                FaultStep::Kill(1),
                FaultStep::Run(500),
                FaultStep::Mcast {
                    from: 0,
                    count: 1,
                    service: Service::Safe,
                },
                FaultStep::Run(1_000),
                FaultStep::Restart(1),
                FaultStep::Run(1_000),
            ],
        };
        let outcome = Orchestrator::default().run_sim(&plan);
        assert!(outcome.settled);
        assert!(!outcome.failed(), "{:?}", outcome.failure);
        assert!(
            outcome.report.total("storage_recoveries") >= 1,
            "the restarted process must report a storage recovery"
        );
        assert!(outcome.report.total("wal_replay_records") >= 1);
    }

    fn broker_plan() -> FaultPlan {
        FaultPlan {
            n: 3,
            seed: 13,
            steps: vec![
                FaultStep::Mcast {
                    from: 0,
                    count: 4,
                    service: Service::Agreed,
                },
                FaultStep::Run(200),
                FaultStep::BrokerKill(0),
                FaultStep::Run(2_000),
                FaultStep::BrokerReconnect(0),
                FaultStep::Mcast {
                    from: 1,
                    count: 2,
                    service: Service::Agreed,
                },
                FaultStep::Run(2_000),
            ],
        }
    }

    #[test]
    fn broker_plan_passes_conformance_on_the_correct_ledger() {
        // A broker is killed with a batch in flight and reconnected: the
        // resubmission replays through the dedup ledgers, and with the
        // correct ledger the run is clean (no broker-dedup, no EVS
        // violation).
        let outcome = Orchestrator::default().run_sim(&broker_plan());
        assert!(outcome.settled);
        assert!(!outcome.failed(), "{:?}", outcome.failure);
        assert!(
            outcome.report.total("broker_batches_flushed") >= 1,
            "client ops must ride the broker pipeline"
        );
    }

    #[test]
    fn broker_execution_is_deterministic() {
        let orch = Orchestrator::detached();
        let (a, sa) = orch.execute_broker(&broker_plan());
        let (b, sb) = orch.execute_broker(&broker_plan());
        assert_eq!(sa, sb);
        assert_eq!(a.trace().events, b.trace().events);
        assert_eq!(a.replies(), b.replies());
        assert_eq!(a.applied_total(), b.applied_total());
        assert_eq!(a.deduped_total(), b.deduped_total());
    }

    #[test]
    fn live_rejects_broker_plans() {
        let e = Orchestrator::detached()
            .run_live(&broker_plan())
            .expect_err("broker steps are simulator-only");
        assert!(e.detail.contains("simulator-only"), "{e}");
    }

    /// Every corruption kind, injected mid-traffic on both poisoned-self
    /// (bit flips, wrap, desync) and durable-rot (WAL byte, truncation)
    /// paths, with kill/restart steps so the WAL damage actually replays.
    fn corruption_gauntlet() -> FaultPlan {
        use crate::plan::BitTarget;
        FaultPlan {
            n: 3,
            seed: 77,
            steps: vec![
                FaultStep::Mcast {
                    from: 0,
                    count: 3,
                    service: Service::Safe,
                },
                FaultStep::Run(1_000),
                FaultStep::BitFlip {
                    p: 1,
                    target: BitTarget::Aru,
                    bit: 13,
                },
                FaultStep::Run(2_000),
                FaultStep::BitFlip {
                    p: 2,
                    target: BitTarget::Counter,
                    bit: 3,
                },
                FaultStep::Mcast {
                    from: 2,
                    count: 2,
                    service: Service::Agreed,
                },
                FaultStep::Run(2_000),
                FaultStep::SeqWrap(0),
                FaultStep::Run(2_000),
                FaultStep::ConfDesync(1),
                FaultStep::Run(2_000),
                FaultStep::WalByte {
                    p: 2,
                    record: 1,
                    offset: 0,
                },
                FaultStep::Kill(2),
                FaultStep::Run(1_000),
                FaultStep::Restart(2),
                FaultStep::Run(2_000),
                FaultStep::WalTrunc { p: 0, bytes: 5 },
                FaultStep::Kill(0),
                FaultStep::Run(1_000),
                FaultStep::Restart(0),
                FaultStep::Run(2_000),
            ],
        }
    }

    #[test]
    fn corruption_gauntlet_heals_to_full_conformance_on_sim() {
        let outcome = Orchestrator::default().run_sim(&corruption_gauntlet());
        assert!(outcome.settled, "cluster re-stabilized after every fault");
        assert!(!outcome.failed(), "{:?}", outcome.failure);
        assert!(
            outcome.report.total("corruptions_injected") >= 6,
            "all injections landed"
        );
        assert!(
            outcome.report.total("corruption_excomms") >= 3,
            "ring bit flip, wrap and desync each excommunicated"
        );
        assert!(
            outcome.report.total("corruption_repairs") >= 1,
            "the persistent counter repaired in place"
        );
    }

    #[test]
    fn corruption_execution_is_deterministic() {
        let orch = Orchestrator::detached();
        let (a, sa) = orch.execute(&corruption_gauntlet());
        let (b, sb) = orch.execute(&corruption_gauntlet());
        assert_eq!(sa, sb);
        assert_eq!(a.trace().events, b.trace().events);
    }

    #[test]
    fn corruption_gauntlet_heals_on_the_live_driver_too() {
        let outcome = Orchestrator::default()
            .run_live(&corruption_gauntlet())
            .expect("corruption steps are live-supported");
        assert!(outcome.settled);
        assert!(!outcome.failed(), "{:?}", outcome.failure);
        assert!(outcome.report.total("corruptions_injected") >= 6);
    }

    #[test]
    fn live_accepts_and_applies_network_knob_steps() {
        // A short lossy, jittery live run: the orchestrator must accept
        // the droppct/delay steps (formerly simulator-only), heal, and
        // pass conformance.
        let plan = FaultPlan {
            n: 2,
            seed: 9,
            steps: vec![
                FaultStep::DropPct(20),
                FaultStep::Delay(1, 2),
                FaultStep::Mcast {
                    from: 0,
                    count: 2,
                    service: Service::Safe,
                },
                FaultStep::Run(2_000),
            ],
        };
        let outcome = Orchestrator::default()
            .run_live(&plan)
            .expect("network knobs are live-supported now");
        assert!(outcome.settled);
        assert!(!outcome.failed(), "{:?}", outcome.failure);
    }
}
