//! The in-process driver: brokers + a simulated daemon group.
//!
//! [`BrokerCluster`] wraps an [`EvsCluster`] with a set of [`Broker`]s and
//! the daemon-side application (one [`OpLedger`] per daemon), wiring the
//! whole client path through the deterministic simulator: client submits
//! enter a broker's prepare-batch pipeline, flushed batches ride the EVS
//! agreed/safe order, every daemon applies delivered ops exactly once
//! through its ledger, and each broker routes replies off the deliveries
//! at its attached daemon. Deterministic given the seed, and
//! chaos-composable: partitions, crashes, kills, drop/latency knobs and
//! broker kill/reconnect all compose with the client load.
//!
//! The driver keeps an *external* record of applications (independent of
//! the ledger code under test) so harnesses can assert the exactly-once
//! invariant even when the ledger itself is deliberately broken by the
//! `broker-mutation` feature.

use crate::broker::{Broker, BrokerParams, Reply};
use crate::ledger::OpLedger;
use crate::proto;
use crate::session::SubmitOutcome;
use evs_core::{Delivery, EvsCluster, Payload, Trace};
use evs_sim::{Action, NetConfig, ProcessId};
use evs_telemetry::{names, Counter, Telemetry};
use std::collections::HashSet;

/// How a [`BrokerCluster`] is put together.
#[derive(Clone, Debug)]
pub struct BrokerClusterConfig {
    /// Number of EVS daemons in the ordering group.
    pub daemons: usize,
    /// Number of broker front-ends (broker `b` starts attached to daemon
    /// `b % daemons`).
    pub brokers: usize,
    /// Simulation seed (network latency jitter, loss).
    pub seed: u64,
    /// Pipeline parameters for every broker.
    pub broker: BrokerParams,
    /// Enable per-daemon and per-broker telemetry.
    pub telemetry: bool,
}

impl Default for BrokerClusterConfig {
    fn default() -> Self {
        BrokerClusterConfig {
            daemons: 3,
            brokers: 2,
            seed: 0,
            broker: BrokerParams::default(),
            telemetry: false,
        }
    }
}

/// One reply routed to a client, with the driver tick it was routed at —
/// the raw material of client-observed latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoutedReply {
    /// The broker that routed it.
    pub broker: u32,
    /// The client addressed.
    pub client: u64,
    /// The op's per-client sequence number.
    pub seq: u64,
    /// Simulated tick of routing.
    pub at: u64,
}

/// Daemon-side application record, kept outside the ledger under test.
#[derive(Debug, Default)]
struct DaemonApply {
    /// Every `(client, seq)` the ledger let through at this daemon.
    seen: HashSet<(u64, u64)>,
    /// Ops the ledger let through a *second* time — the exactly-once
    /// violation a planted dedup bug produces.
    duplicates: Vec<(u64, u64)>,
    applied: u64,
    deduped: u64,
}

struct BrokerSlot {
    broker: Broker,
    /// False between a broker kill and its reconnect: no flushing, no
    /// delivery consumption, no new submits.
    alive: bool,
    /// How many deliveries at the attached daemon have been consumed for
    /// reply routing. Reset on reattach (the new daemon's full history is
    /// rescanned; acks are idempotent).
    cursor: usize,
}

/// The in-process client-path harness: brokers, daemons, ledgers, and the
/// reply stream, all under the deterministic simulator.
pub struct BrokerCluster {
    cluster: EvsCluster<Payload>,
    daemons: usize,
    brokers: Vec<BrokerSlot>,
    ledgers: Vec<OpLedger>,
    apply_log: Vec<DaemonApply>,
    /// Per-daemon cursor into its delivery log for ledger application.
    daemon_cursor: Vec<usize>,
    /// Cached per-daemon counters (applied / deduped).
    daemon_counters: Vec<(Counter, Counter)>,
    replies: Vec<RoutedReply>,
    broker_telemetry: Vec<Telemetry>,
    service: evs_order::Service,
}

impl BrokerCluster {
    /// Builds the cluster. Call [`BrokerCluster::form`] before submitting.
    pub fn new(cfg: BrokerClusterConfig) -> Self {
        assert!(cfg.daemons > 0, "need at least one daemon");
        let cluster = EvsCluster::<Payload>::builder(cfg.daemons)
            .net(NetConfig {
                seed: cfg.seed,
                ..NetConfig::default()
            })
            .telemetry(cfg.telemetry)
            .build();
        let daemon_counters = (0..cfg.daemons)
            .map(|d| {
                let t = cluster.telemetry(ProcessId::new(d as u32));
                (
                    t.counter(names::BROKER_OPS_APPLIED),
                    t.counter(names::BROKER_OPS_DEDUPED),
                )
            })
            .collect();
        let broker_telemetry: Vec<Telemetry> = (0..cfg.brokers)
            .map(|b| {
                if cfg.telemetry {
                    // Brokers live outside the daemon pid space; offset
                    // them so dumps and reports stay distinguishable.
                    Telemetry::enabled(1_000 + b as u32)
                } else {
                    Telemetry::disabled()
                }
            })
            .collect();
        let brokers = (0..cfg.brokers)
            .map(|b| BrokerSlot {
                broker: Broker::with_telemetry(
                    b as u32,
                    ProcessId::new((b % cfg.daemons) as u32),
                    cfg.broker.clone(),
                    broker_telemetry[b].clone(),
                ),
                alive: true,
                cursor: 0,
            })
            .collect();
        BrokerCluster {
            cluster,
            daemons: cfg.daemons,
            brokers,
            ledgers: (0..cfg.daemons).map(|_| OpLedger::new()).collect(),
            apply_log: (0..cfg.daemons).map(|_| DaemonApply::default()).collect(),
            daemon_cursor: vec![0; cfg.daemons],
            daemon_counters,
            replies: Vec::new(),
            broker_telemetry,
            service: cfg.broker.service,
        }
    }

    /// Runs until the daemon group forms. Returns false on a stall.
    pub fn form(&mut self, max_ticks: u64) -> bool {
        self.cluster.run_until_settled(max_ticks)
    }

    /// Current simulated tick.
    pub fn now_ticks(&self) -> u64 {
        self.cluster.now().ticks()
    }

    /// Number of daemons.
    pub fn daemons(&self) -> usize {
        self.daemons
    }

    /// Read access to broker `b` (assertions, stats).
    pub fn broker(&self, b: usize) -> &Broker {
        &self.brokers[b].broker
    }

    /// True unless broker `b` has been killed and not reconnected.
    pub fn broker_alive(&self, b: usize) -> bool {
        self.brokers[b].alive
    }

    /// Opens a session for `client` at broker `b`.
    pub fn connect(&mut self, b: usize, client: u64) {
        let at = self.cluster.now().ticks();
        self.brokers[b].broker.connect(at, client);
    }

    /// Submits one client op through broker `b`. A killed broker
    /// backpressures (the client's connection is gone; it must retry
    /// after the broker reconnects).
    pub fn submit(&mut self, b: usize, client: u64, op: Payload) -> SubmitOutcome {
        if !self.brokers[b].alive {
            return SubmitOutcome::Backpressure;
        }
        let at = self.cluster.now().ticks();
        self.brokers[b].broker.submit(at, client, &op)
    }

    /// Advances the whole system `ticks` ticks: flushes due batches into
    /// the group, runs the simulator, applies deliveries through every
    /// daemon's ledger and routes replies. The flush/run/route cycle
    /// repeats in small chunks so batch latency bounds hold mid-pump.
    pub fn pump(&mut self, ticks: u64) {
        let mut left = ticks;
        while left > 0 {
            let chunk = left.min(64);
            self.flush_brokers();
            self.cluster.run_for(chunk);
            self.route();
            left -= chunk;
        }
    }

    /// Flushes every due batch of every live broker into its attached
    /// daemon (skipped while the daemon is down — ops keep accumulating
    /// for the eventual reconnect).
    fn flush_brokers(&mut self) {
        let at = self.cluster.now().ticks();
        for slot in &mut self.brokers {
            if !slot.alive || !self.cluster.is_alive(slot.broker.attached()) {
                continue;
            }
            for batch in slot.broker.poll_flush(at) {
                self.cluster
                    .submit(slot.broker.attached(), self.service, batch);
            }
        }
    }

    /// Consumes new deliveries: ledger application at every daemon, then
    /// reply routing at every live broker's attached daemon.
    fn route(&mut self) {
        let at = self.cluster.now().ticks();
        for d in 0..self.daemons {
            let p = ProcessId::new(d as u32);
            let deliveries = self.cluster.deliveries(p);
            let upto = deliveries.len();
            for delivery in &deliveries[self.daemon_cursor[d]..upto] {
                let Delivery::Message { payload, .. } = delivery else {
                    continue;
                };
                let Some((_, entries)) = proto::decode_batch(payload) else {
                    continue;
                };
                for e in entries {
                    if self.ledgers[d].apply(e.client, e.seq) {
                        self.daemon_counters[d].0.inc();
                        let log = &mut self.apply_log[d];
                        log.applied += 1;
                        if !log.seen.insert((e.client, e.seq)) {
                            log.duplicates.push((e.client, e.seq));
                        }
                    } else {
                        self.daemon_counters[d].1.inc();
                        self.apply_log[d].deduped += 1;
                    }
                }
            }
            self.daemon_cursor[d] = upto;
        }
        for slot in &mut self.brokers {
            if !slot.alive {
                continue;
            }
            let p = slot.broker.attached();
            let deliveries = self.cluster.deliveries(p);
            let upto = deliveries.len();
            for delivery in &deliveries[slot.cursor..upto] {
                let Delivery::Message { payload, .. } = delivery else {
                    continue;
                };
                for Reply { client, seq } in slot.broker.on_delivered(at, payload) {
                    self.replies.push(RoutedReply {
                        broker: slot.broker.id(),
                        client,
                        seq,
                        at,
                    });
                }
            }
            slot.cursor = upto;
        }
    }

    /// Kills broker `b`: its daemon link drops, it stops flushing and
    /// consuming deliveries, and new submits backpressure. Session state
    /// (the unacked windows) survives for the reconnect.
    pub fn kill_broker(&mut self, b: usize) {
        self.brokers[b].alive = false;
    }

    /// Reconnects broker `b` to the lowest-index live daemon, resubmits
    /// everything unacked, and restarts delivery consumption from the new
    /// daemon's full history (idempotent acks + daemon-side dedup make
    /// the replay safe). Returns false if no daemon is alive.
    pub fn reconnect_broker(&mut self, b: usize) -> bool {
        let Some(to) = (0..self.daemons)
            .map(|d| ProcessId::new(d as u32))
            .find(|&p| self.cluster.is_alive(p))
        else {
            return false;
        };
        let at = self.cluster.now().ticks();
        let slot = &mut self.brokers[b];
        let batches = slot.broker.reattach(at, to);
        slot.cursor = 0;
        slot.alive = true;
        for batch in batches {
            self.cluster.submit(to, self.service, batch);
        }
        true
    }

    // ---- fault passthroughs (chaos composition) ----

    /// Partitions the daemon network.
    pub fn partition(&mut self, groups: &[&[ProcessId]]) {
        self.cluster.partition(groups);
    }

    /// Heals all partitions.
    pub fn merge_all(&mut self) {
        self.cluster.merge_all();
    }

    /// Crashes daemon `p` (volatile state lost, farewell written).
    pub fn crash(&mut self, p: ProcessId) {
        self.cluster.crash(p);
    }

    /// Kills daemon `p` (`kill -9`, no farewell).
    pub fn kill(&mut self, p: ProcessId) {
        self.cluster.kill(p);
    }

    /// Recovers daemon `p`.
    pub fn recover(&mut self, p: ProcessId) {
        self.cluster.recover(p);
    }

    /// True if daemon `p` is up.
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.cluster.is_alive(p)
    }

    /// Sets the global packet-drop probability.
    pub fn set_drop_prob(&mut self, prob: f64) {
        self.cluster.sim_mut().apply(Action::SetDropProb(prob));
    }

    /// Sets the global latency range.
    pub fn set_latency(&mut self, lo: u64, hi: u64) {
        self.cluster.sim_mut().apply(Action::SetLatency(lo, hi));
    }

    // ---- observation ----

    /// Replies routed so far (client-observed completions).
    pub fn replies(&self) -> &[RoutedReply] {
        &self.replies
    }

    /// Total first-time applications across all daemons.
    pub fn applied_total(&self) -> u64 {
        self.apply_log.iter().map(|l| l.applied).sum()
    }

    /// Total duplicate deliveries discarded by the ledgers.
    pub fn deduped_total(&self) -> u64 {
        self.apply_log.iter().map(|l| l.deduped).sum()
    }

    /// The exactly-once violations: ops a daemon's ledger let through
    /// twice, as `(daemon, client, seq)`. Empty on a correct ledger; the
    /// planted `broker-mutation` bug populates it under reconnect replays.
    pub fn duplicate_applications(&self) -> Vec<(u32, u64, u64)> {
        let mut out = Vec::new();
        for (d, log) in self.apply_log.iter().enumerate() {
            for &(client, seq) in &log.duplicates {
                out.push((d as u32, client, seq));
            }
        }
        out
    }

    /// Replies whose op no daemon ever applied — a routing bug if ever
    /// non-empty (a reply is only routed off an observed delivery, which
    /// the daemon-side pass applied first).
    pub fn acked_never_applied(&self) -> Vec<RoutedReply> {
        self.replies
            .iter()
            .filter(|r| {
                !self
                    .apply_log
                    .iter()
                    .any(|l| l.seen.contains(&(r.client, r.seq)))
            })
            .copied()
            .collect()
    }

    /// The execution trace of the daemon group (conformance checking).
    pub fn trace(&self) -> Trace {
        self.cluster.trace()
    }

    /// Per-daemon telemetry handles.
    pub fn daemon_telemetry(&self) -> Vec<Telemetry> {
        self.cluster.telemetry_handles()
    }

    /// Per-broker telemetry handles.
    pub fn broker_telemetry(&self) -> &[Telemetry] {
        &self.broker_telemetry
    }

    /// Direct access to the underlying cluster (advanced schedules).
    pub fn cluster_mut(&mut self) -> &mut EvsCluster<Payload> {
        &mut self.cluster
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs_core::checker;

    fn smoke_cfg() -> BrokerClusterConfig {
        BrokerClusterConfig {
            daemons: 3,
            brokers: 2,
            seed: 7,
            telemetry: true,
            ..BrokerClusterConfig::default()
        }
    }

    #[test]
    fn client_ops_flow_to_replies_exactly_once() {
        let mut bc = BrokerCluster::new(smoke_cfg());
        assert!(bc.form(300_000), "formation stalled");
        let mut accepted = 0;
        for client in 0..40u64 {
            let b = (client % 2) as usize;
            bc.connect(b, client);
            for _ in 0..3 {
                if matches!(
                    bc.submit(b, client, Payload::from(vec![client as u8; 16])),
                    SubmitOutcome::Accepted { .. }
                ) {
                    accepted += 1;
                }
            }
        }
        bc.pump(40_000);
        assert_eq!(accepted, 120);
        assert_eq!(bc.replies().len(), 120, "every op replied");
        assert_eq!(
            bc.applied_total() as usize,
            120 * 3,
            "all 3 daemons applied"
        );
        assert!(bc.duplicate_applications().is_empty());
        assert!(bc.acked_never_applied().is_empty());
        assert_eq!(bc.broker(0).inflight() + bc.broker(1).inflight(), 0);
        checker::check_all(&bc.trace()).expect("conformance");
    }

    #[test]
    fn reconnect_resubmits_and_dedup_holds() {
        let mut bc = BrokerCluster::new(smoke_cfg());
        assert!(bc.form(300_000));
        for client in 0..10u64 {
            bc.submit(0, client, Payload::from(vec![1u8; 8]));
        }
        // Force the batch out and let the group deliver it, but kill the
        // broker before it consumes the deliveries: acks are lost, ops
        // stay unacked in its sessions.
        let at = bc.now_ticks();
        let batches = bc.brokers[0].broker.force_flush(at);
        assert!(!batches.is_empty());
        for batch in batches {
            bc.cluster.submit(ProcessId::new(0), bc.service, batch);
        }
        bc.cluster.run_for(30_000);
        bc.kill_broker(0);
        bc.route();
        assert_eq!(bc.replies().len(), 0, "acks lost with the broker down");

        assert!(bc.reconnect_broker(0));
        bc.pump(40_000);
        // Replay of history acks the originals; resubmitted duplicates
        // are deduped at every daemon, never re-applied.
        assert_eq!(bc.replies().len(), 10);
        assert!(bc.duplicate_applications().is_empty());
        assert!(bc.deduped_total() > 0, "resubmissions were deduped");
        assert_eq!(bc.applied_total(), 10 * 3);
        checker::check_all(&bc.trace()).expect("conformance");
    }

    #[test]
    fn daemon_crash_with_reconnect_keeps_exactly_once() {
        let mut bc = BrokerCluster::new(smoke_cfg());
        assert!(bc.form(300_000));
        for client in 0..8u64 {
            bc.submit(0, client, Payload::from(vec![2u8; 8]));
        }
        bc.pump(20_000);
        // Broker 0 is attached to daemon 0; crash it mid-stream.
        bc.crash(ProcessId::new(0));
        bc.kill_broker(0);
        for client in 8..16u64 {
            assert_eq!(
                bc.submit(0, client, Payload::new()),
                SubmitOutcome::Backpressure
            );
        }
        bc.pump(60_000);
        assert!(bc.reconnect_broker(0));
        assert_ne!(bc.broker(0).attached(), ProcessId::new(0));
        bc.pump(60_000);
        bc.recover(ProcessId::new(0));
        bc.pump(120_000);
        assert_eq!(
            bc.replies().len(),
            8,
            "all accepted ops replied after reconnect"
        );
        assert!(bc.duplicate_applications().is_empty());
        assert!(bc.acked_never_applied().is_empty());
        checker::check_all(&bc.trace()).expect("conformance");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut bc = BrokerCluster::new(smoke_cfg());
            assert!(bc.form(300_000));
            for client in 0..20u64 {
                bc.submit((client % 2) as usize, client, Payload::from(vec![3u8; 4]));
            }
            bc.pump(30_000);
            (bc.replies().to_vec(), bc.applied_total(), bc.now_ticks())
        };
        assert_eq!(run(), run());
    }
}
