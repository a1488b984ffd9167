//! Load generators and the per-op accounting they share.
//!
//! An **op** is one application message submitted and delivered with the
//! requested service at its origin member (direct loads), or one client
//! `EVBS` submit answered by its `EVBR` reply (broker load). Every op must
//! also be delivered exactly once at every member expected to see it. The
//! program under test only ever sees inputs generated from the seed here.

use crate::edge::TimedDriver;
use crate::reactor::{Cluster, Sink};
use crate::trace::{self, now_ns, span, Sp};
use evs_broker::{proto, Broker, BrokerParams, OpLedger, SubmitOutcome};
use evs_core::{ConfigId, Delivery, Payload, Service};
use evs_net::{Completion, SocketDriver};
use std::collections::{BTreeSet, VecDeque};
use std::net::{SocketAddr, UdpSocket};

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Seeded payload bytes: each op's payload is its index (8 bytes, so a
/// delivery can be matched to its op) followed by a slice of this pool.
pub struct PayloadPool {
    bytes: Vec<u8>,
    size: usize,
}

impl PayloadPool {
    pub fn new(rng: &mut Rng, size: usize) -> PayloadPool {
        assert!(size >= 8, "a payload starts with its 8-byte op index");
        let mut bytes = vec![0u8; 1 << 16];
        for chunk in bytes.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next().to_le_bytes());
        }
        PayloadPool { bytes, size }
    }

    pub fn bytes_for(&self, op: u64) -> Vec<u8> {
        let body = self.size - 8;
        let at = (op.wrapping_mul(0x9E37_79B1) as usize) % (self.bytes.len() - body);
        let mut out = Vec::with_capacity(self.size);
        out.extend_from_slice(&op.to_le_bytes());
        out.extend_from_slice(&self.bytes[at..at + body]);
        out
    }
}

fn op_of(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?))
}

/// A seeded, balanced sequence of members: 64 rounds of `0..n`, each
/// shuffled. Used cycled, as the order in which members originate ops and
/// as the order in which they are killed.
fn shuffled_rounds(rng: &mut Rng, n: usize) -> Vec<u8> {
    let mut order = Vec::with_capacity(n * 64);
    for _ in 0..64 {
        let mut block: Vec<u8> = (0..n as u8).collect();
        for i in (1..n).rev() {
            block.swap(i, rng.below(i as u64 + 1) as usize);
        }
        order.extend(block);
    }
    order
}

/// Why an op (or a delivery) counts as failed.
#[derive(Clone, Copy, Default, Debug)]
pub struct Failures {
    pub backpressured: u64,
    pub duplicated: u64,
    /// A delivery that matches no op of this epoch.
    pub unknown: u64,
    /// Attempted but not completed, or not delivered everywhere expected,
    /// when the epoch ended (lost, or cut off by a watchdog).
    pub incomplete: u64,
    /// Completed, but more than [`OP_DEADLINE_NS`] after it started.
    pub late: u64,
    /// A configuration's delivery sequence differed between members.
    pub order_mismatches: u64,
}

impl Failures {
    pub fn add(&mut self, other: &Failures) {
        self.backpressured += other.backpressured;
        self.duplicated += other.duplicated;
        self.unknown += other.unknown;
        self.incomplete += other.incomplete;
        self.late += other.late;
        self.order_mismatches += other.order_mismatches;
    }

    pub fn total(&self) -> u64 {
        self.backpressured
            + self.duplicated
            + self.unknown
            + self.incomplete
            + self.late
            + self.order_mismatches
    }
}

/// An op not completed within this long has failed.
pub const OP_DEADLINE_NS: u64 = 5_000_000_000;

/// One member's delivery history in one configuration, folded into a
/// rolling hash of `(seq, id)` so histories compare in O(1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Chain {
    config: ConfigId,
    hash: u64,
    count: u64,
}

/// Per-op accounting of one epoch. Sized once; reused across epochs so the
/// harness itself allocates nothing per op.
pub struct Ledger {
    n: usize,
    total: u64,
    /// Ops attempted so far; ops are numbered in attempt order.
    pub attempted: u64,
    pub completed: u64,
    /// Ops delivered at every member expected to deliver them.
    pub fully_delivered: u64,
    pub failures: Failures,
    /// Bitmask of members that delivered the op.
    seen: Vec<u8>,
    /// Bitmask of members that must deliver the op.
    expect: Vec<u8>,
    done: Vec<bool>,
    start_ns: Vec<u64>,
    /// Completion latencies of the segment being measured.
    pub lat_ns: Vec<u64>,
    chains: Vec<Vec<Chain>>,
}

impl Ledger {
    pub fn new(n: usize, total: u64) -> Ledger {
        assert!(n <= 8, "member sets are u8 bitmasks");
        Ledger {
            n,
            total,
            attempted: 0,
            completed: 0,
            fully_delivered: 0,
            failures: Failures::default(),
            seen: vec![0; total as usize],
            expect: vec![0; total as usize],
            done: vec![false; total as usize],
            start_ns: vec![0; total as usize],
            lat_ns: Vec::with_capacity(total.min(1 << 16) as usize),
            chains: vec![Vec::new(); n],
        }
    }

    pub fn reset(&mut self) {
        self.attempted = 0;
        self.completed = 0;
        self.fully_delivered = 0;
        self.failures = Failures::default();
        self.seen.fill(0);
        self.expect.fill(0);
        self.done.fill(false);
        self.lat_ns.clear();
        for c in &mut self.chains {
            c.clear();
        }
    }

    fn all_members(&self) -> u8 {
        ((1u16 << self.n) - 1) as u8
    }

    /// Registers the next op, started at `start_ns`, expected at `expect`.
    fn attempt(&mut self, start_ns: u64, expect: u8) -> u64 {
        let op = self.attempted;
        self.attempted += 1;
        self.start_ns[op as usize] = start_ns;
        self.expect[op as usize] = expect;
        op
    }

    /// Member `m` delivered op `op` as `(seq, id)` in `config`.
    fn mark(&mut self, m: usize, op: u64, config: ConfigId, seq: u64, id: (u32, u64)) {
        if op >= self.attempted {
            self.failures.unknown += 1;
            return;
        }
        let bit = 1u8 << m;
        let (seen, expect) = (&mut self.seen[op as usize], self.expect[op as usize]);
        if *seen & bit != 0 {
            self.failures.duplicated += 1;
            return;
        }
        let was_full = *seen & expect == expect;
        *seen |= bit;
        if !was_full && *seen & expect == expect {
            self.fully_delivered += 1;
        }
        let chains = &mut self.chains[m];
        if chains.last().map(|c| c.config) != Some(config) {
            chains.push(Chain {
                config,
                hash: 0,
                count: 0,
            });
        }
        let c = chains.last_mut().expect("pushed above");
        let item = seq
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((id.0 as u64) << 48 ^ id.1);
        c.hash = (c.hash.rotate_left(5) ^ item).wrapping_mul(0x0100_0000_01B3);
        c.count += 1;
    }

    /// Op `op` got its answer at `now`.
    fn complete(&mut self, op: u64, now: u64) {
        if op >= self.attempted {
            self.failures.unknown += 1;
            return;
        }
        if std::mem::replace(&mut self.done[op as usize], true) {
            self.failures.duplicated += 1;
            return;
        }
        let lat = now.saturating_sub(self.start_ns[op as usize]);
        if lat > OP_DEADLINE_NS {
            self.failures.late += 1;
        }
        self.completed += 1;
        self.lat_ns.push(lat);
    }

    /// Forgets member `m`'s delivery chains: its incarnation was killed, so
    /// they are only prefixes of what the survivors delivered.
    fn forget_chains(&mut self, m: usize) {
        self.chains[m].clear();
    }

    /// Closes the epoch's books: ops never completed or not delivered
    /// everywhere count as failed, and every configuration's delivery
    /// sequence must be the same at all members that were in it.
    pub fn close(&mut self) {
        let incomplete = (0..self.attempted as usize)
            .filter(|&op| !self.done[op] || self.seen[op] & self.expect[op] != self.expect[op])
            .count() as u64;
        self.failures.incomplete += incomplete;
        let mut by_config: Vec<Chain> = Vec::new();
        for m in 0..self.n {
            for c in &self.chains[m] {
                match by_config.iter().find(|k| k.config == c.config) {
                    Some(k) if k != c => self.failures.order_mismatches += 1,
                    Some(_) => {}
                    None => by_config.push(*c),
                }
            }
        }
    }
}

/// What the epoch driver needs from a load generator.
pub trait Load: Sink {
    fn ledger(&self) -> &Ledger;
    fn ledger_mut(&mut self) -> &mut Ledger;
    /// Prepares a fresh epoch over a just-formed cluster.
    fn begin(&mut self, cluster: &mut Cluster, epoch_seed: u64) -> Result<(), String>;
    /// Offers whatever load is due now.
    fn step(&mut self, cluster: &mut Cluster) -> Result<(), String>;
    /// True once every op of the epoch was attempted.
    fn exhausted(&self) -> bool;
    /// True when the generator has something to do at `now` (open loops).
    fn due(&self, _now: u64) -> bool {
        false
    }
    /// What only this kind of load can tell about the epoch just run.
    fn extras(&mut self) -> Extras {
        Extras::default()
    }
}

/// Per-epoch figures specific to one kind of load.
#[derive(Clone, Copy, Default, Debug)]
pub struct Extras {
    /// Batched multicast frames the broker flushed.
    pub batches: u64,
    /// Median wait between `Broker::submit` and the op's flush.
    pub queue_wait_p50_ns: Option<u64>,
    /// 99th percentile of how late the open-loop generator submitted.
    pub generator_late_p99_ns: Option<u64>,
    /// `persist::fold` timed over the victim's log before its restart.
    pub fold: Option<crate::probes::Fold>,
    /// Fault timings of the epoch, if it injected one.
    pub fault: Option<FaultTimes>,
}

/// The `p`-quantile (nearest rank) of `values`, which it sorts.
pub fn quantile(values: &mut [u64], p: f64) -> Option<u64> {
    values.sort_unstable();
    let rank = (p * values.len() as f64).ceil() as usize;
    values.get(rank.clamp(1, values.len().max(1)) - 1).copied()
}

/// A closed loop of direct `submit`s: `window` ops in flight over the whole
/// group, each next op originating at the next member of the seeded order.
pub struct ClosedLoad {
    ledger: Ledger,
    service: Service,
    window: u64,
    pool: PayloadPool,
    order: Vec<u8>,
}

impl ClosedLoad {
    pub fn new(
        n: usize,
        total: u64,
        service: Service,
        size: usize,
        window: u64,
        seed: u64,
    ) -> Self {
        let mut rng = Rng(seed);
        ClosedLoad {
            ledger: Ledger::new(n, total),
            service,
            window,
            pool: PayloadPool::new(&mut rng, size),
            order: shuffled_rounds(&mut rng, n),
        }
    }
}

/// Accounts a direct load's delivery; returns the op if this delivery was
/// the one at its origin (its completion).
fn direct_delivery(ledger: &mut Ledger, member: usize, d: &Delivery<Payload>) -> Option<u64> {
    let Delivery::Message {
        id,
        seq,
        config,
        payload,
        ..
    } = d
    else {
        return None;
    };
    let Some(op) = op_of(payload) else {
        ledger.failures.unknown += 1;
        return None;
    };
    ledger.mark(member, op, *config, *seq, (id.sender.index(), id.counter));
    (id.sender.as_usize() == member && op < ledger.attempted).then_some(op)
}

impl Sink for ClosedLoad {
    fn delivered(&mut self, member: usize, d: Delivery<Payload>) {
        if let Some(op) = direct_delivery(&mut self.ledger, member, &d) {
            self.ledger.complete(op, now_ns());
        }
    }
}

impl Load for ClosedLoad {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin(&mut self, _cluster: &mut Cluster, _epoch_seed: u64) -> Result<(), String> {
        self.ledger.reset();
        Ok(())
    }

    fn step(&mut self, cluster: &mut Cluster) -> Result<(), String> {
        let l = &mut self.ledger;
        if l.attempted == l.total || l.attempted - l.completed >= self.window {
            return Ok(());
        }
        span(Sp::Generator, || {
            while l.attempted < l.total && l.attempted - l.completed < self.window {
                let all = l.all_members();
                let op = l.attempt(now_ns(), all);
                trace::set_op(op);
                let member = self.order[op as usize % self.order.len()] as usize;
                let payload = Payload::from(self.pool.bytes_for(op));
                cluster.submit(member, self.service, payload);
            }
            trace::set_op(u64::MAX);
        });
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.ledger.attempted == self.ledger.total
    }
}

/// When the fault of an epoch happened and what it cost.
#[derive(Clone, Copy, Default, Debug)]
pub struct FaultTimes {
    /// Kill → first op completed in the next regular configuration.
    pub outage_ns: Option<u64>,
    /// Restart from the WAL → the victim delivers a regular configuration
    /// of all `n` members.
    pub rejoin_ns: Option<u64>,
    /// Kill → first membership `Join` sent by a survivor.
    pub detect_ns: Option<u64>,
    /// Kill → the next regular configuration delivered at every survivor.
    pub install_ns: Option<u64>,
    /// Regular configurations installed after formation (2 = the kill and
    /// the rejoin; more are spurious).
    pub config_changes: u64,
}

/// The fault plan of an open-loop epoch, in nanoseconds from load start.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    pub kill_at_ns: u64,
    /// The kill lands this much later at most, drawn from the seed.
    pub kill_jitter_ns: u64,
    pub restart_at_ns: u64,
    /// The load ends this many ops after the victim has rejoined, so every
    /// epoch ends with the same number of messages in its last
    /// configuration however long the rejoin took: what the never-pruned
    /// ring store retains at the end does not depend on recovery timing.
    pub ops_after_rejoin: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Phase {
    Up,
    Down,
    Rejoining,
    Rejoined,
}

/// The victim stops originating this long before it is killed, so no op
/// dies with its origin: the workload measures the group's outage, not a
/// client's failover, and must not contain ops that are bound to fail.
const DRAIN_BEFORE_KILL_NS: u64 = 50_000_000;

/// An open loop on the wall clock: op `k` is due at `k / rate` seconds and
/// is timed from then, whether or not the generator or the group was ready.
/// A seeded victim is killed and later restarted from its WAL.
pub struct OpenLoad {
    ledger: Ledger,
    n: usize,
    interval_ns: u64,
    plan: FaultPlan,
    pool: PayloadPool,
    order: Vec<u8>,
    /// A seeded order in which members are killed, one per epoch: `n`
    /// epochs kill every member once, so a run's medians do not depend on
    /// which members the seed happened to pick.
    victims: Vec<u8>,
    epochs_begun: usize,
    t0: u64,
    victim: usize,
    kill_at: u64,
    restart_at: u64,
    kill_ns: u64,
    restart_ns: u64,
    phase: Phase,
    formed: ConfigId,
    survivors_installed: u8,
    regular_configs: BTreeSet<ConfigId>,
    times: FaultTimes,
    /// The op count at which the load ends, known once the victim rejoined;
    /// until then the ledger's capacity bounds the epoch.
    end_at_op: Option<u64>,
    /// How late each op was submitted after it was due.
    pub late_ns: Vec<u64>,
    /// Time `persist::fold` over the victim's log just before each restart
    /// (the traced run's `persist` probe).
    pub probe_persist: bool,
    fold: Option<crate::probes::Fold>,
}

impl OpenLoad {
    pub fn new(n: usize, total: u64, rate: u64, size: usize, plan: FaultPlan, seed: u64) -> Self {
        let mut rng = Rng(seed);
        OpenLoad {
            ledger: Ledger::new(n, total),
            n,
            interval_ns: 1_000_000_000 / rate,
            plan,
            pool: PayloadPool::new(&mut rng, size),
            order: shuffled_rounds(&mut rng, n),
            victims: shuffled_rounds(&mut rng, n),
            epochs_begun: 0,
            t0: 0,
            victim: 0,
            kill_at: 0,
            restart_at: 0,
            kill_ns: 0,
            restart_ns: 0,
            phase: Phase::Up,
            formed: ConfigId::regular(0, evs_sim::ProcessId::new(0)),
            survivors_installed: 0,
            regular_configs: BTreeSet::new(),
            times: FaultTimes::default(),
            end_at_op: None,
            late_ns: Vec::with_capacity(total as usize),
            probe_persist: false,
            fold: None,
        }
    }

    fn survivors(&self) -> u8 {
        self.ledger.all_members() & !(1 << self.victim)
    }

    fn due_ns(&self, op: u64) -> u64 {
        self.t0 + op * self.interval_ns
    }

    /// Ops this epoch offers: a fixed count past the rejoin, or — if the
    /// victim never rejoins — whatever the ledger was sized for.
    fn last_op(&self) -> u64 {
        self.end_at_op.unwrap_or(u64::MAX).min(self.ledger.total)
    }

    fn next_is_due(&self, now: u64) -> bool {
        self.ledger.attempted < self.last_op() && self.due_ns(self.ledger.attempted) <= now
    }

    /// Whether `member` may originate an op at `now`: the victim may not
    /// while it drains before the kill, is down, or has not rejoined.
    fn may_originate(&self, member: usize, now: u64) -> bool {
        member != self.victim
            || self.phase == Phase::Rejoined
            || (self.phase == Phase::Up && now + DRAIN_BEFORE_KILL_NS < self.kill_at)
    }

    fn generate(&mut self, cluster: &mut Cluster, now: u64) {
        while self.next_is_due(now) {
            // Ops the victim's first incarnation may never deliver are only
            // owed to the survivors; once it has rejoined, to everyone.
            let expect = if self.phase == Phase::Rejoined {
                self.ledger.all_members()
            } else {
                self.survivors()
            };
            let due = self.due_ns(self.ledger.attempted);
            let op = self.ledger.attempt(due, expect);
            trace::set_op(op);
            self.late_ns.push(now.saturating_sub(due));
            let mut member = self.order[op as usize % self.order.len()] as usize;
            while !self.may_originate(member, now) {
                member = (member + 1) % self.n;
            }
            let payload = Payload::from(self.pool.bytes_for(op));
            cluster.submit(member, Service::Safe, payload);
        }
        trace::set_op(u64::MAX);
    }
}

impl Sink for OpenLoad {
    fn delivered(&mut self, member: usize, d: Delivery<Payload>) {
        let now = now_ns();
        if let Delivery::Config(cfg) = &d {
            if !cfg.is_regular() || self.phase == Phase::Up {
                return;
            }
            // The restarted victim's singleton is not a change of the group.
            if cfg.members.len() > 1 {
                self.regular_configs.insert(cfg.id);
            }
            let has_victim = cfg.members.iter().any(|p| p.as_usize() == self.victim);
            if member != self.victim && !has_victim && self.times.install_ns.is_none() {
                self.survivors_installed |= 1 << member;
                if self.survivors_installed == self.survivors() {
                    self.times.install_ns = Some(now - self.kill_ns);
                }
            }
            if member == self.victim
                && self.phase == Phase::Rejoining
                && cfg.members.len() == self.n
            {
                self.times.rejoin_ns = Some(now - self.restart_ns);
                self.phase = Phase::Rejoined;
                self.end_at_op = Some(self.ledger.attempted + self.plan.ops_after_rejoin);
            }
            return;
        }
        if let Some(op) = direct_delivery(&mut self.ledger, member, &d) {
            self.ledger.complete(op, now);
            if let Delivery::Message { config, .. } = &d {
                if self.phase >= Phase::Down
                    && self.times.outage_ns.is_none()
                    && !config.transitional
                    && *config != self.formed
                {
                    self.times.outage_ns = Some(now - self.kill_ns);
                }
            }
        }
    }
}

impl Load for OpenLoad {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin(&mut self, cluster: &mut Cluster, epoch_seed: u64) -> Result<(), String> {
        self.ledger.reset();
        self.late_ns.clear();
        let mut rng = Rng(epoch_seed);
        self.victim = self.victims[self.epochs_begun % self.victims.len()] as usize;
        self.epochs_begun += 1;
        self.t0 = now_ns();
        self.kill_at = self.t0 + self.plan.kill_at_ns + rng.below(self.plan.kill_jitter_ns.max(1));
        self.restart_at = self.t0 + self.plan.restart_at_ns;
        self.phase = Phase::Up;
        self.formed = cluster
            .node(0)
            .ok_or("node 0 is down at load start")?
            .current_config()
            .id;
        self.survivors_installed = 0;
        self.regular_configs.clear();
        self.times = FaultTimes::default();
        self.end_at_op = None;
        Ok(())
    }

    fn step(&mut self, cluster: &mut Cluster) -> Result<(), String> {
        let now = now_ns();
        if self.phase == Phase::Up && now >= self.kill_at {
            cluster.kill(self.victim)?;
            self.ledger.forget_chains(self.victim);
            self.kill_ns = now_ns();
            self.phase = Phase::Down;
        } else if self.phase == Phase::Down && now >= self.restart_at {
            self.times.detect_ns = cluster
                .observed
                .first_join_ns
                .map(|t| t.saturating_sub(self.kill_ns));
            if self.probe_persist {
                self.fold = Some(crate::probes::fold_wal_dir(cluster.wal_dir(self.victim))?);
            }
            self.restart_ns = now_ns();
            cluster.restart(self.victim)?;
            self.phase = Phase::Rejoining;
        }
        if self.next_is_due(now) {
            span(Sp::Generator, || self.generate(cluster, now));
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.ledger.attempted >= self.last_op()
    }

    fn due(&self, now: u64) -> bool {
        (self.phase == Phase::Up && now >= self.kill_at)
            || (self.phase == Phase::Down && now >= self.restart_at)
            || self.next_is_due(now)
    }

    fn extras(&mut self) -> Extras {
        Extras {
            generator_late_p99_ns: quantile(&mut self.late_ns, 0.99),
            fold: self.fold.take(),
            fault: Some(FaultTimes {
                config_changes: self.regular_configs.len() as u64,
                ..self.times
            }),
            ..Extras::default()
        }
    }
}

/// Datagrams sent between two drains of the receiving side. A loopback
/// socket's default receive buffer holds under 300 small datagrams; the
/// reactor owns both ends, so it drains the receiver after every burst
/// instead of letting the kernel drop the excess.
const BURST: usize = 64;

/// The shipped client path: `clients` sessions, one op in flight each,
/// sharing one client UDP socket → `EVBS` → broker socket →
/// `Broker::submit` / `poll_flush` → agreed multicast through daemon 0 →
/// ring → `Broker::on_delivered` → `EVBR` → client.
pub struct BrokerLoad {
    ledger: Ledger,
    n: usize,
    clients: u64,
    pool: PayloadPool,
    broker: Broker,
    broker_drv: Box<dyn SocketDriver>,
    client_drv: Box<dyn SocketDriver>,
    broker_addr: SocketAddr,
    client_addr: SocketAddr,
    /// Clients with no op in flight, in the order they will submit.
    ready: VecDeque<u64>,
    /// The op each client has in flight.
    in_flight: Vec<u64>,
    applied: Vec<OpLedger>,
    now_ticks: u64,
    inbox: Vec<Completion>,
    pub batches: u64,
    /// When each op still waiting for its batch entered `Broker::submit`;
    /// the broker cuts batches in the same first-in-first-out order.
    accepted_ns: VecDeque<u64>,
    /// Nanoseconds each op waited between `Broker::submit` and its flush.
    pub queue_wait_ns: Vec<u64>,
}

fn loopback_driver() -> Result<(Box<dyn SocketDriver>, SocketAddr), String> {
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = socket
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    let driver = evs_net::driver_for(socket).map_err(|e| format!("socket driver: {e}"))?;
    Ok((TimedDriver::boxed(driver, true, false), addr))
}

fn new_broker() -> Broker {
    Broker::new(0, evs_sim::ProcessId::new(0), BrokerParams::default())
}

impl BrokerLoad {
    pub fn new(n: usize, total: u64, clients: u64, size: usize, seed: u64) -> Result<Self, String> {
        let (broker_drv, broker_addr) = loopback_driver()?;
        let (client_drv, client_addr) = loopback_driver()?;
        Ok(BrokerLoad {
            ledger: Ledger::new(n, total),
            n,
            clients,
            pool: PayloadPool::new(&mut Rng(seed), size),
            broker: new_broker(),
            broker_drv,
            client_drv,
            broker_addr,
            client_addr,
            ready: VecDeque::with_capacity(clients as usize),
            in_flight: vec![u64::MAX; clients as usize],
            applied: Vec::new(),
            now_ticks: 0,
            inbox: Vec::with_capacity(evs_net::RECV_BATCH),
            batches: 0,
            accepted_ns: VecDeque::with_capacity(clients as usize),
            queue_wait_ns: Vec::with_capacity(total as usize),
        })
    }

    /// The broker's socket: every queued `EVBS` into `Broker::submit`.
    fn drain_broker(&mut self) -> Result<(), String> {
        loop {
            self.inbox.clear();
            let n = self
                .broker_drv
                .complete(None, &mut self.inbox)
                .map_err(|e| format!("broker socket: {e}"))?;
            for (_, pkt) in self.inbox.drain(..) {
                let Some((client, op_bytes)) = span(Sp::BrokerProto, || proto::decode_submit(&pkt))
                else {
                    continue;
                };
                let outcome = span(Sp::BrokerSubmit, || {
                    self.broker.submit(self.now_ticks, client, op_bytes)
                });
                match outcome {
                    SubmitOutcome::Accepted { .. } => self.accepted_ns.push_back(now_ns()),
                    SubmitOutcome::Backpressure => self.ledger.failures.backpressured += 1,
                }
            }
            // A short batch emptied the socket; another poll would be wasted.
            if n < evs_net::RECV_BATCH {
                return Ok(());
            }
        }
    }

    /// The clients' socket: every queued `EVBR` completes its op and frees
    /// its client for the next one.
    fn drain_clients(&mut self) -> Result<(), String> {
        loop {
            self.inbox.clear();
            let n = self
                .client_drv
                .complete(None, &mut self.inbox)
                .map_err(|e| format!("client socket: {e}"))?;
            let now = now_ns();
            for (_, pkt) in self.inbox.drain(..) {
                let Some((client, _seq)) = span(Sp::BrokerProto, || proto::decode_reply(&pkt))
                else {
                    continue;
                };
                let Some(op) = self.in_flight.get_mut(client as usize) else {
                    self.ledger.failures.unknown += 1;
                    continue;
                };
                let op = std::mem::replace(op, u64::MAX);
                self.ledger.complete(op, now);
                self.ready.push_back(client);
            }
            if n < evs_net::RECV_BATCH {
                return Ok(());
            }
        }
    }

    fn generate(&mut self) -> Result<(), String> {
        let mut burst = 0;
        while self.ledger.attempted < self.ledger.total {
            let Some(client) = self.ready.pop_front() else {
                break;
            };
            let all = self.ledger.all_members();
            let op = self.ledger.attempt(now_ns(), all);
            trace::set_op(op);
            self.in_flight[client as usize] = op;
            let bytes = self.pool.bytes_for(op);
            let pkt = span(Sp::BrokerProto, || proto::encode_submit(client, &bytes));
            self.client_drv.push(self.broker_addr, pkt);
            burst += 1;
            if burst == BURST {
                burst = 0;
                self.client_drv
                    .submit()
                    .map_err(|e| format!("client socket: {e}"))?;
                self.drain_broker()?;
            }
        }
        trace::set_op(u64::MAX);
        if burst > 0 {
            self.client_drv
                .submit()
                .map_err(|e| format!("client socket: {e}"))?;
        }
        self.drain_broker()
    }
}

impl Sink for BrokerLoad {
    fn delivered(&mut self, member: usize, d: Delivery<Payload>) {
        let Delivery::Message {
            id,
            seq,
            config,
            payload,
            ..
        } = d
        else {
            return;
        };
        // Every daemon applies each delivered entry exactly once per
        // (client, seq): the ledger a broker reconnect relies on.
        span(Sp::BrokerApply, || {
            let Some((_, entries)) = proto::decode_batch(&payload) else {
                self.ledger.failures.unknown += 1;
                return;
            };
            for (k, e) in entries.iter().enumerate() {
                if !self.applied[member].apply(e.client, e.seq) {
                    self.ledger.failures.duplicated += 1;
                    continue;
                }
                match op_of(&e.op) {
                    Some(op) => self.ledger.mark(
                        member,
                        op,
                        config,
                        seq.wrapping_mul(1 << 20) + k as u64,
                        (id.sender.index(), id.counter),
                    ),
                    None => self.ledger.failures.unknown += 1,
                }
            }
        });
        if member != 0 {
            return;
        }
        let replies = span(Sp::BrokerDelivered, || {
            self.broker.on_delivered(self.now_ticks, &payload)
        });
        for burst in replies.chunks(BURST) {
            for r in burst {
                let pkt = span(Sp::BrokerProto, || proto::encode_reply(r.client, r.seq));
                self.broker_drv.push(self.client_addr, pkt);
            }
            // A reply that cannot be sent or read leaves its op
            // incomplete; the epoch's books report it.
            let _ = self.broker_drv.submit();
            let _ = self.drain_clients();
        }
    }
}

impl Load for BrokerLoad {
    fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    fn begin(&mut self, _cluster: &mut Cluster, epoch_seed: u64) -> Result<(), String> {
        self.ledger.reset();
        self.broker = new_broker();
        self.applied = (0..self.n).map(|_| OpLedger::new()).collect();
        // Anything a cut-short epoch left in the sockets is not ours.
        for drv in [&mut self.broker_drv, &mut self.client_drv] {
            loop {
                self.inbox.clear();
                match drv.complete(None, &mut self.inbox) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        }
        // Seeded client → op assignment: the order clients first submit in.
        let mut rng = Rng(epoch_seed);
        let mut order: Vec<u64> = (0..self.clients).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        self.ready.clear();
        self.ready.extend(order);
        self.in_flight.fill(u64::MAX);
        self.batches = 0;
        self.accepted_ns.clear();
        self.queue_wait_ns.clear();
        Ok(())
    }

    fn step(&mut self, cluster: &mut Cluster) -> Result<(), String> {
        self.now_ticks = cluster.now_ticks();
        if !self.ready.is_empty() && !self.exhausted() {
            span(Sp::Generator, || self.generate())?;
        }
        // Once every op is in, nothing else will fill the last batch.
        let pending = self.broker.pending();
        let frames = span(Sp::BrokerFlush, || {
            if self.exhausted() {
                self.broker.force_flush(self.now_ticks)
            } else {
                self.broker.poll_flush(self.now_ticks)
            }
        });
        if !frames.is_empty() {
            let now = now_ns();
            for accepted in self.accepted_ns.drain(..pending - self.broker.pending()) {
                self.queue_wait_ns.push(now - accepted);
            }
        }
        for frame in frames {
            self.batches += 1;
            cluster.submit(0, Service::Agreed, frame);
        }
        Ok(())
    }

    fn exhausted(&self) -> bool {
        self.ledger.attempted == self.ledger.total
    }

    fn extras(&mut self) -> Extras {
        Extras {
            batches: self.batches,
            queue_wait_p50_ns: quantile(&mut self.queue_wait_ns, 0.50),
            ..Extras::default()
        }
    }
}
