//! Executes fault plans against the protocol stack and runs the full
//! conformance suite on the resulting trace.
//!
//! One interpreter walks a plan's steps and drives a `Substrate`: the
//! deterministic simulator ([`Orchestrator::run_sim`]), the same simulator
//! behind one broker per daemon for plans with broker steps, or the live
//! threaded driver ([`Orchestrator::run_live`]), where the network knobs
//! (`DropPct`, `Delay`) map onto per-link [`LinkFault`] policies so the
//! same plans exercise the same code under real concurrency, with faults
//! interleaving real thread schedules.
//!
//! "Conformance" here is everything the workspace can check: the EVS
//! specifications 1.1–7.2 (with flight-recorder dumps attached on
//! violation), the §2.2 primary-component properties, and the §5 reduction
//! to virtual synchrony.

use crate::plan::{BitTarget, FaultPlan, FaultStep, PlanError};
use evs_broker::{BrokerCluster, BrokerClusterConfig};
use evs_core::{CorruptionKind, EvsCluster, Payload, Trace};
use evs_inspect::{check_all_with_telemetry, collect_dumps};
use evs_order::Service;
use evs_runtime::{Cluster, LinkFault, TICK};
use evs_sim::{NetConfig, ProcessId};
use evs_telemetry::{Exposition, RecordedEvent, Telemetry};
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

/// A run photographed at one instant: its trace and every process's
/// flight-recorder dump, the two inputs of an `evs-inspect` analysis.
#[derive(Clone, Debug, Default)]
pub struct Frame {
    /// The §2 events so far.
    pub trace: Trace,
    /// The flight recorders' contents (empty when telemetry is off).
    pub dumps: ProcessDumps,
}

/// The result of one chaos run.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// True if the cluster re-stabilized inside the settle budget after
    /// the final heal.
    pub settled: bool,
    /// The conformance failure, if any (`"settle"` when `!settled`).
    pub failure: Option<ChaosFailure>,
    /// One telemetry snapshot per process (empty when telemetry is off).
    pub snapshots: Vec<Exposition>,
    /// The run at its end — raw material for `evs-inspect` span and
    /// anomaly analysis of this run, e.g. a campaign's detector-coverage
    /// accounting.
    pub end: Frame,
    /// The run *between the last plan step and the heal*. The end frame
    /// above sees a healed cluster, and several anomaly detectors key on
    /// the state a recording *ends* in (a recovery still stuck, a message
    /// still undelivered, an obligation set still growing) — anomalies the
    /// heal legitimately erases. This mid-run frame is where they are
    /// visible.
    pub mid: Frame,
}

impl ChaosOutcome {
    /// True if this run found anything wrong.
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// Ticks allowed for initial group formation.
const FORMATION_BUDGET: u64 = 300_000;
/// Ticks allowed for the final heal-and-settle phase.
const SETTLE_BUDGET: u64 = 2_000_000;

/// Applies [`FaultPlan`]s to the stack and checks the execution.
#[derive(Clone, Debug)]
pub struct Orchestrator {
    /// Attach per-process telemetry (flight recorder in failure reports,
    /// telemetry snapshots on outcomes). Costs a little speed.
    pub telemetry: bool,
}

impl Default for Orchestrator {
    fn default() -> Self {
        Orchestrator { telemetry: true }
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

fn pid(i: u8) -> ProcessId {
    ProcessId::new(i as u32)
}

/// What a plan runs on: the seam between the one plan interpreter
/// ([`Orchestrator::drive`]) and a cluster. It has one method per step
/// kind, named after it (`Recover` and `Restart` share `recover`, the
/// corruption kinds share `corrupt`), plus formation, the heal, the
/// settle and what a frame and a verdict read. Each implementation keeps
/// its own substrate's rules: which steps a down process skips, what
/// `Mcast` submits, what `Run` waits on.
trait Substrate: Sized {
    /// Names the cluster in a settle failure.
    const NAME: &'static str;
    /// Forms the group. False if it never formed: the plan's steps are
    /// then skipped and the run does not settle.
    fn form(&mut self, budget: u64) -> bool;
    fn split(&mut self, groups: &[Vec<ProcessId>]);
    fn merge(&mut self);
    fn crash(&mut self, p: ProcessId);
    fn kill(&mut self, p: ProcessId);
    fn recover(&mut self, p: ProcessId);
    fn drop_pct(&mut self, pct: u8);
    fn delay(&mut self, lo: u64, hi: u64);
    /// `count` messages from `from`, numbered by the run-wide counter `msg`.
    fn mcast(&mut self, from: ProcessId, count: u8, service: Service, msg: &mut u32);
    fn run(&mut self, ticks: u32);
    /// Only a broker-fronted cluster has brokers.
    fn broker_kill(&mut self, _b: usize) {}
    fn broker_reconnect(&mut self, _b: usize) {}
    fn corrupt(&mut self, p: ProcessId, kind: CorruptionKind);
    /// The heal's first step: no loss and the default latency again.
    fn heal_links(&mut self) {
        let net = NetConfig::default();
        self.drop_pct(0);
        self.delay(net.latency_min, net.latency_max);
    }
    /// Runs the healed cluster to quiescence; true if it settled.
    fn settle(&mut self, budget: u64) -> bool;
    /// The §2 events so far.
    fn trace(&self) -> Trace;
    /// The daemons' telemetry handles: the ones the checker reads.
    fn handles(&self) -> Vec<Telemetry>;
    /// Every telemetry handle: the daemons', then any front end's.
    fn all_handles(&self) -> Vec<Telemetry> {
        self.handles()
    }
    /// Properties beyond the conformance suite this substrate violated,
    /// each with its rendered detail.
    fn extra_verdicts(&self) -> Vec<(&'static str, String)> {
        Vec::new()
    }
    /// Ends the run and returns its final trace.
    fn into_trace(self) -> Trace {
        self.trace()
    }
}

/// The deterministic simulator. A down process sends nothing and takes no
/// corruption, so only the payloads it does send are numbered.
impl Substrate for EvsCluster<String> {
    const NAME: &'static str = "cluster";
    fn form(&mut self, budget: u64) -> bool {
        // The plan runs whatever formation did: the settle judges it.
        self.run_until_settled(budget);
        true
    }
    fn split(&mut self, groups: &[Vec<ProcessId>]) {
        self.sim_mut().partition(groups);
    }
    fn merge(&mut self) {
        self.merge_all();
    }
    fn crash(&mut self, p: ProcessId) {
        EvsCluster::crash(self, p);
    }
    fn kill(&mut self, p: ProcessId) {
        EvsCluster::kill(self, p);
    }
    fn recover(&mut self, p: ProcessId) {
        EvsCluster::recover(self, p);
    }
    fn drop_pct(&mut self, pct: u8) {
        self.sim_mut().set_drop_prob(pct as f64 / 100.0);
    }
    fn delay(&mut self, lo: u64, hi: u64) {
        self.sim_mut().set_latency(lo, hi);
    }
    fn mcast(&mut self, from: ProcessId, count: u8, service: Service, msg: &mut u32) {
        if self.is_alive(from) {
            for _ in 0..count {
                *msg += 1;
                self.submit(from, service, format!("c{msg}"));
            }
        }
    }
    fn run(&mut self, ticks: u32) {
        self.run_for(ticks as u64);
    }
    fn corrupt(&mut self, p: ProcessId, kind: CorruptionKind) {
        if self.is_alive(p) {
            self.sim_mut()
                .invoke(p, move |node, _ctx| node.inject_corruption(kind));
        }
    }
    fn settle(&mut self, budget: u64) -> bool {
        self.run_until_settled(budget)
    }
    fn trace(&self) -> Trace {
        EvsCluster::trace(self)
    }
    fn handles(&self) -> Vec<Telemetry> {
        self.telemetry_handles()
    }
}

/// The simulator behind one broker per daemon: `Mcast` becomes client ops
/// through broker `from`, and the exactly-once invariants are checked on
/// top of conformance.
impl Substrate for BrokerCluster {
    const NAME: &'static str = "broker-fronted cluster";
    fn form(&mut self, budget: u64) -> bool {
        BrokerCluster::form(self, budget);
        true
    }
    fn split(&mut self, groups: &[Vec<ProcessId>]) {
        self.cluster_mut().sim_mut().partition(groups);
    }
    fn merge(&mut self) {
        self.cluster_mut().merge_all();
    }
    fn crash(&mut self, p: ProcessId) {
        self.cluster_mut().crash(p);
    }
    fn kill(&mut self, p: ProcessId) {
        self.cluster_mut().kill(p);
    }
    fn recover(&mut self, p: ProcessId) {
        self.cluster_mut().recover(p);
    }
    fn drop_pct(&mut self, pct: u8) {
        self.cluster_mut()
            .sim_mut()
            .set_drop_prob(pct as f64 / 100.0);
    }
    fn delay(&mut self, lo: u64, hi: u64) {
        self.cluster_mut().sim_mut().set_latency(lo, hi);
    }
    fn mcast(&mut self, from: ProcessId, count: u8, _service: Service, msg: &mut u32) {
        // A dead or backpressuring broker drops the burst, like a down
        // process on the daemon path. One client per broker keeps
        // per-client sequences long enough to replay.
        let client = 100 + from.as_usize() as u64;
        for _ in 0..count {
            *msg += 1;
            let op = Payload::from(msg.to_be_bytes().to_vec());
            let _ = self.submit(from.as_usize(), client, op);
        }
    }
    fn run(&mut self, ticks: u32) {
        self.pump(ticks as u64);
    }
    fn broker_kill(&mut self, b: usize) {
        self.kill_broker(b);
    }
    fn broker_reconnect(&mut self, b: usize) {
        let _ = self.reconnect_broker(b);
    }
    fn corrupt(&mut self, p: ProcessId, kind: CorruptionKind) {
        let cluster = self.cluster_mut();
        if cluster.is_alive(p) {
            cluster
                .sim_mut()
                .invoke(p, move |node, _ctx| node.inject_corruption(kind));
        }
    }
    fn settle(&mut self, budget: u64) -> bool {
        // Reconnect every dead broker, which resubmits its unacked ops:
        // the replay the dedup ledgers must absorb exactly once.
        for b in 0..self.daemons() {
            if !self.broker_alive(b) {
                let _ = self.reconnect_broker(b);
            }
        }
        let settled = self.cluster_mut().run_until_settled(budget);
        // Drain the client pipeline: flush still-pending batches, deliver
        // them, apply through the ledgers and route the replies.
        self.pump(20_000);
        let settled = settled && self.cluster_mut().run_until_settled(budget);
        self.pump(256);
        settled
    }
    fn trace(&self) -> Trace {
        BrokerCluster::trace(self)
    }
    fn handles(&self) -> Vec<Telemetry> {
        self.daemon_telemetry()
    }
    fn all_handles(&self) -> Vec<Telemetry> {
        let mut all = self.daemon_telemetry();
        all.extend(self.broker_telemetry().iter().cloned());
        all
    }
    /// `"broker-dedup"`: a daemon ledger applied the same client op twice.
    /// `"broker-ack"`: a reply was routed for an op no daemon applied.
    fn extra_verdicts(&self) -> Vec<(&'static str, String)> {
        let mut out = Vec::new();
        let dups = self.duplicate_applications();
        if !dups.is_empty() {
            out.push((
                "broker-dedup",
                format!(
                    "exactly-once violated: {} duplicate application(s) \
                     (daemon, client, seq), first: {:?}\n",
                    dups.len(),
                    &dups[..dups.len().min(8)]
                ),
            ));
        }
        let ghosts = self.acked_never_applied();
        if !ghosts.is_empty() {
            out.push((
                "broker-ack",
                format!(
                    "{} reply(ies) routed for ops no daemon applied, first: {:?}\n",
                    ghosts.len(),
                    &ghosts[..ghosts.len().min(8)]
                ),
            ));
        }
        out
    }
}

/// A live [`Cluster`] over the in-memory medium: real threads, real time,
/// wall-clock budgets.
struct Live {
    net: Cluster,
    n: usize,
    /// The simulator's drop and latency knobs are independent global
    /// settings; one net-wide link policy mirrors them, and each step
    /// updates its own part of it.
    policy: LinkFault,
}

impl Live {
    /// Waits until the cluster, not each member alone, has settled: every
    /// member settled in one configuration of all `n`, every member at the
    /// same `high_seen` (so at the same delivery mark), and no datagram
    /// held back on a link. A member's own check passes while a message
    /// its sender already delivered is still on the way to it; the
    /// sender's `high_seen`, or the held datagram, gives that away.
    fn wait_settled(&self, timeout: Duration) -> bool {
        let n = self.n;
        self.net.wait_for(timeout, |net| {
            let marks: Vec<_> = (0..n as u32)
                .map(|p| {
                    net.inspect(ProcessId::new(p), move |node, _| {
                        let config = node.current_config();
                        let settled = node.is_settled() && config.members.len() == n;
                        settled.then(|| (config.id, node.obs().high_seen))
                    })
                })
                .collect();
            marks[0].is_some() && marks.iter().all(|m| *m == marks[0]) && net.faults().held() == 0
        })
    }
}

impl Substrate for Live {
    const NAME: &'static str = "live cluster";
    fn form(&mut self, _budget: u64) -> bool {
        self.wait_settled(Duration::from_secs(20))
    }
    fn split(&mut self, groups: &[Vec<ProcessId>]) {
        self.net.faults().partition(groups);
    }
    fn merge(&mut self) {
        self.net.faults().merge_all();
    }
    fn crash(&mut self, p: ProcessId) {
        self.net.crash(p);
    }
    fn kill(&mut self, p: ProcessId) {
        self.net.kill(p);
    }
    fn recover(&mut self, p: ProcessId) {
        self.net.recover(p);
    }
    fn drop_pct(&mut self, pct: u8) {
        self.policy.drop_pct = pct;
        self.net.faults().set_all(self.policy);
    }
    fn delay(&mut self, lo: u64, hi: u64) {
        (self.policy.delay_lo, self.policy.delay_hi) = (lo, hi);
        self.net.faults().set_all(self.policy);
    }
    fn mcast(&mut self, from: ProcessId, count: u8, service: Service, msg: &mut u32) {
        // (A down process runs no command: nothing to skip.)
        for _ in 0..count {
            *msg += 1;
            let payload = Payload::from(format!("c{msg}").into_bytes());
            self.net
                .invoke(from, move |node, ctx| node.submit(ctx, service, payload));
        }
    }
    fn run(&mut self, ticks: u32) {
        std::thread::sleep(TICK * ticks);
    }
    fn corrupt(&mut self, p: ProcessId, kind: CorruptionKind) {
        self.net
            .invoke(p, move |node, _ctx| node.inject_corruption(kind));
    }
    fn heal_links(&mut self) {
        self.net.faults().set_all(LinkFault::default());
    }
    fn settle(&mut self, _budget: u64) -> bool {
        self.wait_settled(Duration::from_secs(30))
    }
    fn trace(&self) -> Trace {
        Trace::new(
            (0..self.n as u32)
                .map(|p| {
                    self.net
                        .inspect(ProcessId::new(p), |_, trace| trace.to_vec())
                })
                .collect(),
        )
    }
    fn handles(&self) -> Vec<Telemetry> {
        self.net.telemetry_handles()
    }
    fn into_trace(self) -> Trace {
        Trace::new(self.net.shutdown())
    }
}

impl Orchestrator {
    /// An orchestrator with telemetry detached — the fastest configuration
    /// for large campaigns where only the verdict matters.
    pub fn detached() -> Self {
        Orchestrator { telemetry: false }
    }

    /// Builds a cluster, applies every step of `plan`, heals the network
    /// (drop/latency reset, merge, recover), and lets it settle. Returns
    /// the cluster and whether it settled — the raw material for both
    /// [`Orchestrator::run_sim`] and trace-comparison tests. Broker steps
    /// are skipped: plans carrying them run behind brokers in `run_sim`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn execute(&self, plan: &FaultPlan) -> (EvsCluster<String>, bool) {
        let (cluster, settled, _) = self.execute_observed(plan);
        (cluster, settled)
    }

    /// [`Orchestrator::execute`], also returning the frame captured
    /// between the last plan step and the heal (see [`ChaosOutcome::mid`]).
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn execute_observed(&self, plan: &FaultPlan) -> (EvsCluster<String>, bool, Frame) {
        self.drive(plan, || {
            EvsCluster::<String>::builder(plan.n as usize)
                .net(NetConfig {
                    seed: plan.seed,
                    ..NetConfig::default()
                })
                .telemetry(self.telemetry)
                .build()
        })
    }

    /// The one plan interpreter: builds the substrate, forms the group,
    /// applies every step of `plan`, photographs the pre-heal frame, heals
    /// (perfect links, one component, everyone recovered) and settles.
    /// Returns the substrate, whether it settled, and the pre-heal frame.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    fn drive<S: Substrate>(&self, plan: &FaultPlan, build: impl FnOnce() -> S) -> (S, bool, Frame) {
        plan.validate().expect("fault plan must validate");
        let mut sub = build();
        let formed = sub.form(FORMATION_BUDGET);
        let mut msg = 0u32;
        if formed {
            for step in &plan.steps {
                match step {
                    FaultStep::Split(labels) => sub.split(&components(labels)),
                    FaultStep::Merge => sub.merge(),
                    FaultStep::Crash(i) => sub.crash(pid(*i)),
                    FaultStep::Kill(i) => sub.kill(pid(*i)),
                    FaultStep::Recover(i) | FaultStep::Restart(i) => sub.recover(pid(*i)),
                    FaultStep::DropPct(pct) => sub.drop_pct(*pct),
                    FaultStep::Delay(lo, hi) => sub.delay(*lo, *hi),
                    FaultStep::Mcast {
                        from,
                        count,
                        service,
                    } => sub.mcast(pid(*from), *count, *service, &mut msg),
                    FaultStep::Run(t) => sub.run(*t),
                    FaultStep::BrokerKill(b) => sub.broker_kill(*b as usize),
                    FaultStep::BrokerReconnect(b) => sub.broker_reconnect(*b as usize),
                    FaultStep::BitFlip { p, target, bit } => {
                        let bit = *bit as u32;
                        let kind = match target {
                            BitTarget::Aru => CorruptionKind::AruBit(bit),
                            BitTarget::Seq => CorruptionKind::SeqBit(bit),
                            BitTarget::Counter => CorruptionKind::CounterBit(bit),
                        };
                        sub.corrupt(pid(*p), kind);
                    }
                    FaultStep::SeqWrap(p) => sub.corrupt(pid(*p), CorruptionKind::SeqWrap),
                    FaultStep::ConfDesync(p) => sub.corrupt(pid(*p), CorruptionKind::ConfDesync),
                    FaultStep::WalByte { p, record, offset } => sub.corrupt(
                        pid(*p),
                        CorruptionKind::WalByte {
                            record: *record as u64,
                            offset: *offset as u64,
                        },
                    ),
                    FaultStep::WalTrunc { p, bytes } => sub.corrupt(
                        pid(*p),
                        CorruptionKind::WalTrunc {
                            bytes: *bytes as u64,
                        },
                    ),
                }
            }
        }
        // The anomalies the injected faults caused are about to be healed
        // away; photograph them first.
        let mid = Frame {
            trace: sub.trace(),
            dumps: collect_dumps(&sub.all_handles()),
        };
        // Heal everything so the liveness-flavored specifications apply:
        // a correct engine must always re-stabilize from here.
        sub.heal_links();
        sub.merge();
        for i in 0..plan.n {
            sub.recover(pid(i));
        }
        let settled = formed && sub.settle(SETTLE_BUDGET);
        (sub, settled, mid)
    }

    /// Ends a driven run and judges it: the conformance suite plus the
    /// substrate's own verdicts, or `"settle"` if it never re-stabilized.
    fn judge<S: Substrate>(
        &self,
        plan: &FaultPlan,
        (sub, settled, mid): (S, bool, Frame),
    ) -> ChaosOutcome {
        let handles = sub.handles();
        let all = sub.all_handles();
        let extra = sub.extra_verdicts();
        let end = Frame {
            trace: sub.into_trace(),
            dumps: collect_dumps(&all),
        };
        let snapshots = all.iter().filter_map(Telemetry::snapshot).collect();
        let failure = if settled {
            let (mut specs, mut details) = conformance(&end.trace, &handles, plan.n as usize)
                .map_or_else(Default::default, |f| (f.specs, f.details));
            for (spec, detail) in extra {
                specs.push(spec.to_string());
                details.push_str(&detail);
            }
            (!specs.is_empty()).then(|| finish(specs, details))
        } else {
            Some(ChaosFailure {
                specs: vec!["settle".to_string()],
                details: format!("{} failed to re-stabilize after healing", S::NAME),
            })
        };
        ChaosOutcome {
            settled,
            failure,
            snapshots,
            end,
            mid,
        }
    }

    /// Runs `plan` under the deterministic simulator and checks the full
    /// conformance suite. Plans with broker steps run behind one broker
    /// per daemon, `Mcast` becoming client ops, and are also checked for
    /// the exactly-once invariants: `"broker-dedup"` (a daemon ledger
    /// applied the same client op twice) and `"broker-ack"` (a reply was
    /// routed for an op no daemon applied). The whole generated plan space
    /// runs through this one entry point.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn run_sim(&self, plan: &FaultPlan) -> ChaosOutcome {
        if plan.has_broker_steps() {
            self.judge(plan, self.drive(plan, || self.broker_cluster(plan)))
        } else {
            self.judge(plan, self.execute_observed(plan))
        }
    }

    /// The simulator behind one broker per daemon, for a plan with broker
    /// steps.
    fn broker_cluster(&self, plan: &FaultPlan) -> BrokerCluster {
        BrokerCluster::new(BrokerClusterConfig {
            daemons: plan.n as usize,
            brokers: plan.n as usize,
            seed: plan.seed,
            telemetry: self.telemetry,
            ..BrokerClusterConfig::default()
        })
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
        let live = || {
            let net = Cluster::in_memory(plan.n as usize, self.telemetry);
            net.faults().set_seed(plan.seed);
            Live {
                net,
                n: plan.n as usize,
                policy: LinkFault::default(),
            }
        };
        Ok(self.judge(plan, self.drive(plan, live)))
    }
}

/// Runs the full conformance suite — EVS Specifications 1.1–7.2,
/// primary-component Uniqueness/Continuity, and the §5 VS reduction — over
/// a trace. Returns `None` when everything holds.
pub fn conformance(trace: &Trace, handles: &[Telemetry], n: usize) -> Option<ChaosFailure> {
    let mut specs: Vec<String> = Vec::new();
    let mut details = String::new();
    if let Err(failure) = check_all_with_telemetry(trace, handles) {
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
    use evs_telemetry::total;

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
        assert!(total(&outcome.snapshots, "messages_sent") >= 2);
    }

    #[test]
    fn detached_orchestrator_reports_nothing() {
        let outcome = Orchestrator::detached().run_sim(&quiet_plan());
        assert!(!outcome.failed());
        assert!(outcome.snapshots.is_empty());
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
            total(&outcome.snapshots, "storage_recoveries") >= 1,
            "the restarted process must report a storage recovery"
        );
        assert!(total(&outcome.snapshots, "wal_replay_records") >= 1);
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
            total(&outcome.snapshots, "broker_batches_flushed") >= 1,
            "client ops must ride the broker pipeline"
        );
    }

    #[test]
    fn broker_execution_is_deterministic() {
        let orch = Orchestrator::detached();
        let plan = broker_plan();
        let (a, sa, _) = orch.drive(&plan, || orch.broker_cluster(&plan));
        let (b, sb, _) = orch.drive(&plan, || orch.broker_cluster(&plan));
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
            total(&outcome.snapshots, "corruptions_injected") >= 6,
            "all injections landed"
        );
        assert!(
            total(&outcome.snapshots, "corruption_excomms") >= 3,
            "ring bit flip, wrap and desync each excommunicated"
        );
        assert!(
            total(&outcome.snapshots, "corruption_repairs") >= 1,
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
        assert!(total(&outcome.snapshots, "corruptions_injected") >= 6);
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
