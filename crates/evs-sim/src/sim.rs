//! The deterministic discrete-event simulator.

use crate::node::{Ctx, Effect, Node, TimerId, TimerKind};
use crate::{ProcessId, SimTime, Topology};
use evs_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Parameters of the simulated broadcast medium.
///
/// Latency is sampled uniformly from `[latency_min, latency_max]` ticks,
/// independently per destination, so broadcast receipt order differs between
/// receivers — the out-of-order receipt the paper distinguishes from
/// delivery. `drop_prob` injects omission faults, again independently per
/// destination, modeling lossy multicast. Loopback (a process receiving its
/// own send) is reliable and takes `latency_min` ticks.
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Minimum one-hop latency in ticks. Must be at least 1 so no message is
    /// received in the same instant it is sent.
    pub latency_min: u64,
    /// Maximum one-hop latency in ticks (inclusive).
    pub latency_max: u64,
    /// Independent per-destination probability that a packet is lost.
    pub drop_prob: f64,
    /// Seed for the simulation's random number generator. Two runs with the
    /// same seed, schedule and node logic are identical.
    pub seed: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency_min: 1,
            latency_max: 5,
            drop_prob: 0.0,
            seed: 0xE55,
        }
    }
}

impl NetConfig {
    /// A lossy variant of the default configuration.
    pub fn lossy(drop_prob: f64, seed: u64) -> Self {
        NetConfig {
            drop_prob,
            seed,
            ..NetConfig::default()
        }
    }
}

/// A boxed closure run against a node when an [`Action::Invoke`] fires.
pub type InvokeFn<N> =
    Box<dyn FnOnce(&mut N, &mut Ctx<'_, <N as Node>::Msg, <N as Node>::Ev>) + Send>;

/// A scheduled environment action: the fault-injection vocabulary.
///
/// Actions are scheduled with [`Sim::at`] and applied at the given simulated
/// time, interleaved deterministically with protocol events.
pub enum Action<N: Node> {
    /// Partition the network: each group becomes its own component
    /// (processes not named keep their component).
    Partition(Vec<Vec<ProcessId>>),
    /// Merge the components containing the named processes.
    Merge(Vec<ProcessId>),
    /// Reconnect the entire network into one component.
    MergeAll,
    /// Crash a process: volatile state and pending timers are lost, the
    /// node's durable log and the trace survive.
    Crash(ProcessId),
    /// Kill a process outright (`kill -9`): like [`Action::Crash`] but the
    /// node gets **no** `on_crash` callback — no final trace event, no
    /// last-moment stable write. Only state the node already journaled
    /// (e.g. a write-ahead log) survives.
    Kill(ProcessId),
    /// Recover a previously crashed process under the same identifier.
    Recover(ProcessId),
    /// Change the packet-loss probability from this point on.
    SetDropProb(f64),
    /// Change the one-hop latency range `[min, max]` (ticks) from this
    /// point on. Packets already in flight keep their sampled latency.
    SetLatency(u64, u64),
    /// Run a closure against a (live) node, e.g. to submit an application
    /// message. Ignored if the process is crashed at the scheduled time.
    Invoke(ProcessId, InvokeFn<N>),
}

impl<N: Node> std::fmt::Debug for Action<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Partition(groups) => f.debug_tuple("Partition").field(groups).finish(),
            Action::Merge(bridge) => f.debug_tuple("Merge").field(bridge).finish(),
            Action::MergeAll => write!(f, "MergeAll"),
            Action::Crash(p) => f.debug_tuple("Crash").field(p).finish(),
            Action::Kill(p) => f.debug_tuple("Kill").field(p).finish(),
            Action::Recover(p) => f.debug_tuple("Recover").field(p).finish(),
            Action::SetDropProb(q) => f.debug_tuple("SetDropProb").field(q).finish(),
            Action::SetLatency(lo, hi) => f.debug_tuple("SetLatency").field(lo).field(hi).finish(),
            Action::Invoke(p, _) => f.debug_tuple("Invoke").field(p).finish(),
        }
    }
}

enum Payload<N: Node> {
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: N::Msg,
    },
    Timer {
        pid: ProcessId,
        id: TimerId,
        kind: TimerKind,
        epoch: u64,
    },
    Act(Action<N>),
}

struct Entry<N: Node> {
    time: SimTime,
    seq: u64,
    payload: Payload<N>,
}

impl<N: Node> PartialEq for Entry<N> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<N: Node> Eq for Entry<N> {}
impl<N: Node> PartialOrd for Entry<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<N: Node> Ord for Entry<N> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct Slot<N: Node> {
    node: N,
    alive: bool,
    epoch: u64,
    trace: Vec<(SimTime, N::Ev)>,
    next_timer_id: u64,
    cancelled: HashSet<TimerId>,
    telemetry: Telemetry,
}

/// A deterministic discrete-event simulation of a broadcast network of
/// [`Node`] state machines.
///
/// The simulator owns the processes, the medium, the clock and the fault
/// schedule. Protocol logic lives entirely in the nodes; the simulator only
/// moves packets (with loss, latency and partition semantics), fires timers
/// and applies scheduled [`Action`]s. Runs are reproducible: the same seed
/// and schedule give the same execution, event for event.
///
/// # Examples
///
/// ```
/// use evs_sim::{Ctx, NetConfig, Node, ProcessId, Sim, SimTime, TimerKind};
///
/// /// A node that counts pings and echoes them back.
/// struct Ping { got: u32 }
/// impl Node for Ping {
///     type Msg = &'static str;
///     type Ev = ();
///     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, ()>) {
///         if ctx.id() == ProcessId::new(0) {
///             ctx.broadcast("ping");
///         }
///     }
///     fn on_message(&mut self, _ctx: &mut Ctx<'_, Self::Msg, ()>, _from: ProcessId, _m: Self::Msg) {
///         self.got += 1;
///     }
///     fn on_timer(&mut self, _: &mut Ctx<'_, Self::Msg, ()>, _: TimerKind) {}
///     fn on_crash(&mut self, _: &mut Ctx<'_, Self::Msg, ()>) {}
///     fn on_recover(&mut self, _: &mut Ctx<'_, Self::Msg, ()>) {}
/// }
///
/// let mut sim = Sim::new(3, NetConfig::default(), |_| Ping { got: 0 });
/// sim.run_until(SimTime::from_ticks(100));
/// assert!(sim.node(ProcessId::new(2)).got >= 1);
/// ```
pub struct Sim<N: Node> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry<N>>,
    slots: Vec<Slot<N>>,
    topo: Topology,
    cfg: NetConfig,
    rng: SmallRng,
    started: bool,
}

impl<N: Node> Sim<N> {
    /// Creates a simulation of `n` processes built by `make`, fully
    /// connected, at time zero.
    ///
    /// `Node::on_start` runs lazily when the simulation first advances (or
    /// when [`Sim::start`] is called), so actions and topology changes can be
    /// scheduled first.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or if `cfg.latency_min` is zero or exceeds
    /// `cfg.latency_max`.
    pub fn new(n: usize, cfg: NetConfig, mut make: impl FnMut(ProcessId) -> N) -> Self {
        assert!(n > 0, "simulation needs at least one process");
        assert!(
            cfg.latency_min >= 1 && cfg.latency_min <= cfg.latency_max,
            "invalid latency range"
        );
        let slots = (0..n as u32)
            .map(|i| Slot {
                node: make(ProcessId::new(i)),
                alive: true,
                epoch: 0,
                trace: Vec::new(),
                next_timer_id: 0,
                cancelled: HashSet::new(),
                telemetry: Telemetry::disabled(),
            })
            .collect();
        let rng = SmallRng::seed_from_u64(cfg.seed);
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            slots,
            topo: Topology::fully_connected(n),
            cfg,
            rng,
            started: false,
        }
    }

    /// Number of processes in the simulation.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns true if the simulation has no processes (never: construction
    /// requires at least one).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The current network topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Immutable access to a node's state machine (for assertions in tests).
    pub fn node(&self, p: ProcessId) -> &N {
        &self.slots[p.as_usize()].node
    }

    /// Returns true if `p` is currently up.
    pub fn is_alive(&self, p: ProcessId) -> bool {
        self.slots[p.as_usize()].alive
    }

    /// The events `p` has emitted so far, in emission order.
    pub fn trace(&self, p: ProcessId) -> &[(SimTime, N::Ev)] {
        &self.slots[p.as_usize()].trace
    }

    /// Attaches an enabled [`Telemetry`] handle to every process.
    ///
    /// Must be called before the simulation starts so `Node::on_start` sees
    /// the attached handle. Telemetry (including the flight recorder, like
    /// the trace) deliberately survives crash/recovery: it records what the
    /// process did across its whole lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `Node::on_start` has already run.
    pub fn enable_telemetry(&mut self) {
        assert!(
            !self.started,
            "enable_telemetry must be called before the simulation starts"
        );
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.telemetry = Telemetry::enabled(i as u32);
        }
    }

    /// The telemetry handle of process `p` (detached unless
    /// [`Sim::enable_telemetry`] was called).
    pub fn telemetry(&self, p: ProcessId) -> &Telemetry {
        &self.slots[p.as_usize()].telemetry
    }

    /// Every process's telemetry handle, in process order.
    pub fn telemetry_handles(&self) -> Vec<Telemetry> {
        self.slots.iter().map(|s| s.telemetry.clone()).collect()
    }

    /// Schedules `action` to be applied at absolute time `t`.
    ///
    /// Multiple actions at the same instant apply in scheduling order,
    /// interleaved after any protocol events already queued for that instant.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn at(&mut self, t: SimTime, action: Action<N>) {
        assert!(t >= self.now, "cannot schedule an action in the past");
        let seq = self.bump_seq();
        self.queue.push(Entry {
            time: t,
            seq,
            payload: Payload::Act(action),
        });
    }

    /// Convenience for scheduling an [`Action::Invoke`].
    pub fn at_invoke(
        &mut self,
        t: SimTime,
        p: ProcessId,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Ev>) + Send + 'static,
    ) {
        self.at(t, Action::Invoke(p, Box::new(f)));
    }

    /// Runs `Node::on_start` on every process if it has not run yet.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.slots.len() {
            let pid = ProcessId::new(i as u32);
            self.dispatch(pid, |node, ctx| node.on_start(ctx));
        }
    }

    /// Processes queued events until the queue holds nothing at or before
    /// `deadline`, then advances the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start();
        while let Some(entry) = self.queue.peek() {
            if entry.time > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Pops and processes a single event. Returns false if the queue was
    /// empty.
    pub fn step(&mut self) -> bool {
        self.start();
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.time >= self.now, "event queue went backwards");
        self.now = entry.time;
        match entry.payload {
            Payload::Deliver { from, to, msg } => {
                let slot = &self.slots[to.as_usize()];
                // Partition semantics are evaluated at delivery time: a
                // packet still in flight when its source and destination are
                // separated is lost, and a crashed destination receives
                // nothing.
                if slot.alive && self.topo.reachable(from, to) {
                    self.dispatch(to, |node, ctx| node.on_message(ctx, from, msg));
                }
            }
            Payload::Timer {
                pid,
                id,
                kind,
                epoch,
            } => {
                let slot = &mut self.slots[pid.as_usize()];
                let stale = !slot.alive || slot.epoch != epoch || slot.cancelled.remove(&id);
                if !stale {
                    self.dispatch(pid, |node, ctx| node.on_timer(ctx, kind));
                }
            }
            Payload::Act(action) => self.apply(action),
        }
        true
    }

    /// Applies an action immediately, outside the schedule.
    pub fn apply(&mut self, action: Action<N>) {
        match action {
            Action::Partition(groups) => self.topo.split(&groups),
            Action::Merge(bridge) => self.topo.merge(&bridge),
            Action::MergeAll => self.topo.merge_all(),
            Action::SetDropProb(q) => self.cfg.drop_prob = q,
            Action::SetLatency(lo, hi) => {
                assert!(lo >= 1 && lo <= hi, "invalid latency range");
                self.cfg.latency_min = lo;
                self.cfg.latency_max = hi;
            }
            Action::Crash(p) => self.crash(p),
            Action::Kill(p) => self.kill(p),
            Action::Recover(p) => self.recover(p),
            Action::Invoke(p, f) => {
                if self.slots[p.as_usize()].alive {
                    self.dispatch(p, |node, ctx| f(node, ctx));
                }
            }
        }
    }

    /// Crashes `p` immediately: volatile node state and timers are lost, the
    /// node's durable log and the trace survive. No-op if already crashed.
    pub fn crash(&mut self, p: ProcessId) {
        let slot = &mut self.slots[p.as_usize()];
        if !slot.alive {
            return;
        }
        slot.alive = false;
        slot.epoch += 1; // invalidates all pending timers
        slot.cancelled.clear();
        // The node may emit a final `fail` trace event and append to its
        // log, but anything it tries to transmit is discarded.
        let mut ctx = Ctx {
            pid: p,
            now: self.now,
            effects: Vec::new(),
            trace: &mut slot.trace,
            next_timer_id: &mut slot.next_timer_id,
            telemetry: slot.telemetry.clone(),
        };
        slot.node.on_crash(&mut ctx);
    }

    /// Kills `p` immediately with **no** `on_crash` callback, modeling
    /// `kill -9`: the node cannot write a farewell to stable storage or
    /// the trace. Whatever it journaled while running is all a later
    /// [`Sim::recover`] gets. No-op if already down.
    pub fn kill(&mut self, p: ProcessId) {
        let slot = &mut self.slots[p.as_usize()];
        if !slot.alive {
            return;
        }
        slot.alive = false;
        slot.epoch += 1; // invalidates all pending timers
        slot.cancelled.clear();
    }

    /// Recovers `p` immediately under the same identifier via
    /// `Node::on_recover`. No-op if already alive.
    pub fn recover(&mut self, p: ProcessId) {
        let slot = &mut self.slots[p.as_usize()];
        if slot.alive {
            return;
        }
        slot.alive = true;
        slot.epoch += 1;
        self.dispatch(p, |node, ctx| node.on_recover(ctx));
    }

    /// Runs a closure against node `p` with a live context, e.g. to submit
    /// an application message right now. Starts the simulation first if it
    /// has not started yet, so `Node::on_start` always runs before any
    /// invocation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is crashed.
    pub fn invoke(&mut self, p: ProcessId, f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Ev>)) {
        self.start();
        assert!(self.slots[p.as_usize()].alive, "invoke on crashed {p}");
        self.dispatch(p, |node, ctx| f(node, ctx));
    }

    /// Returns true if no events remain in the queue.
    pub fn quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    fn bump_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn dispatch(&mut self, pid: ProcessId, f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Ev>)) {
        let slot = &mut self.slots[pid.as_usize()];
        let epoch = slot.epoch;
        let mut ctx = Ctx {
            pid,
            now: self.now,
            effects: Vec::new(),
            trace: &mut slot.trace,
            next_timer_id: &mut slot.next_timer_id,
            telemetry: slot.telemetry.clone(),
        };
        f(&mut slot.node, &mut ctx);
        let effects = ctx.effects;
        for effect in effects {
            match effect {
                Effect::Broadcast(msg) => {
                    // Clone for all destinations but the last, which takes
                    // the original — a broadcast of n costs n-1 clones.
                    let n = self.slots.len() as u32;
                    for to in 0..n.saturating_sub(1) {
                        let to = ProcessId::new(to);
                        self.transmit(pid, to, msg.clone());
                    }
                    if n > 0 {
                        self.transmit(pid, ProcessId::new(n - 1), msg);
                    }
                }
                Effect::Unicast(to, msg) => self.transmit(pid, to, msg),
                Effect::SetTimer(id, delay, kind) => {
                    let seq = self.bump_seq();
                    self.queue.push(Entry {
                        time: self.now + delay,
                        seq,
                        payload: Payload::Timer {
                            pid,
                            id,
                            kind,
                            epoch,
                        },
                    });
                }
                Effect::CancelTimer(id) => {
                    self.slots[pid.as_usize()].cancelled.insert(id);
                }
            }
        }
    }

    fn transmit(&mut self, from: ProcessId, to: ProcessId, msg: N::Msg) {
        let (latency, dropped) = if from == to {
            // Reliable loopback.
            (self.cfg.latency_min, false)
        } else {
            let latency = self
                .rng
                .gen_range(self.cfg.latency_min..=self.cfg.latency_max);
            let dropped = self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob);
            (latency, dropped)
        };
        if dropped {
            return;
        }
        let seq = self.bump_seq();
        self.queue.push(Entry {
            time: self.now + latency,
            seq,
            payload: Payload::Deliver { from, to, msg },
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: TimerKind = TimerKind(1);

    /// Echo node used across the tests: re-broadcasts a "gossip" message the
    /// first time it hears it, counts receipts, and can run a periodic timer.
    struct Gossip {
        heard: u32,
        relayed: bool,
        timer_fires: u32,
        periodic: bool,
    }

    impl Gossip {
        fn new(periodic: bool) -> Self {
            Gossip {
                heard: 0,
                relayed: false,
                timer_fires: 0,
                periodic,
            }
        }
    }

    impl Node for Gossip {
        type Msg = u64;
        type Ev = u64;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u64, u64>) {
            if self.periodic {
                ctx.set_timer(10, TICK);
            }
        }

        fn on_message(&mut self, ctx: &mut Ctx<'_, u64, u64>, _from: ProcessId, msg: u64) {
            self.heard += 1;
            ctx.emit(msg);
            if !self.relayed {
                self.relayed = true;
                ctx.broadcast(msg);
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, u64, u64>, kind: TimerKind) {
            assert_eq!(kind, TICK);
            self.timer_fires += 1;
            ctx.set_timer(10, TICK);
        }

        fn on_crash(&mut self, _ctx: &mut Ctx<'_, u64, u64>) {
            self.heard = 0;
            self.relayed = false;
        }

        fn on_recover(&mut self, ctx: &mut Ctx<'_, u64, u64>) {
            if self.periodic {
                ctx.set_timer(10, TICK);
            }
        }
    }

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn broadcast_reaches_connected_nodes() {
        let mut sim = Sim::new(4, NetConfig::default(), |_| Gossip::new(false));
        sim.at_invoke(SimTime::from_ticks(1), p(0), |_n, ctx| ctx.broadcast(42));
        sim.run_until(SimTime::from_ticks(50));
        for i in 0..4 {
            assert!(sim.node(p(i)).heard >= 1, "P{i} heard nothing");
        }
    }

    #[test]
    fn partition_blocks_cross_component_traffic() {
        let mut sim = Sim::new(4, NetConfig::default(), |_| Gossip::new(false));
        sim.at(
            SimTime::from_ticks(1),
            Action::Partition(vec![vec![p(0), p(1)], vec![p(2), p(3)]]),
        );
        sim.at_invoke(SimTime::from_ticks(2), p(0), |_n, ctx| ctx.broadcast(7));
        sim.run_until(SimTime::from_ticks(100));
        assert!(sim.node(p(1)).heard >= 1);
        assert_eq!(sim.node(p(2)).heard, 0);
        assert_eq!(sim.node(p(3)).heard, 0);
    }

    #[test]
    fn packet_in_flight_across_partition_instant_is_lost() {
        // Send at t=1 (latency 1..=5); partition at t=2. Packets landing
        // after t=2 on the far side must be dropped.
        let mut sim = Sim::new(
            2,
            NetConfig {
                latency_min: 3,
                latency_max: 3,
                ..NetConfig::default()
            },
            |_| Gossip::new(false),
        );
        sim.at_invoke(SimTime::from_ticks(1), p(0), |_n, ctx| ctx.broadcast(9));
        sim.at(
            SimTime::from_ticks(2),
            Action::Partition(vec![vec![p(0)], vec![p(1)]]),
        );
        sim.run_until(SimTime::from_ticks(50));
        assert_eq!(sim.node(p(1)).heard, 0);
        // Loopback still arrives at the sender: once for the original send
        // and once for the node's own relay.
        assert_eq!(sim.node(p(0)).heard, 2);
    }

    #[test]
    fn crash_stops_receipt_and_timers_recover_restarts() {
        let mut sim = Sim::new(2, NetConfig::default(), |_| Gossip::new(true));
        sim.at(SimTime::from_ticks(25), Action::Crash(p(1)));
        sim.run_until(SimTime::from_ticks(100));
        let fires_at_crash = sim.node(p(1)).timer_fires;
        assert_eq!(fires_at_crash, 2, "timers at t=10,20 then crash at 25");
        sim.at(SimTime::from_ticks(101), Action::Recover(p(1)));
        sim.run_until(SimTime::from_ticks(151));
        assert!(sim.node(p(1)).timer_fires > fires_at_crash);
        assert!(sim.is_alive(p(1)));
    }

    #[test]
    fn crashed_node_receives_nothing() {
        let mut sim = Sim::new(2, NetConfig::default(), |_| Gossip::new(false));
        sim.at(SimTime::from_ticks(1), Action::Crash(p(1)));
        sim.at_invoke(SimTime::from_ticks(2), p(0), |_n, ctx| ctx.broadcast(1));
        sim.run_until(SimTime::from_ticks(50));
        assert_eq!(sim.node(p(1)).heard, 0);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Sim::new(5, NetConfig::lossy(0.2, seed), |_| Gossip::new(false));
            for t in 1..20 {
                sim.at_invoke(SimTime::from_ticks(t), p((t % 5) as u32), move |_n, ctx| {
                    ctx.broadcast(t)
                });
            }
            sim.run_until(SimTime::from_ticks(500));
            (0..5).map(|i| sim.trace(p(i)).to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        // Different seeds almost surely differ under 20% loss.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct OneShot {
            fired: bool,
        }
        impl Node for OneShot {
            type Msg = ();
            type Ev = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
                let id = ctx.set_timer(5, TimerKind(0));
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _: &mut Ctx<'_, (), ()>, _: ProcessId, _: ()) {}
            fn on_timer(&mut self, _: &mut Ctx<'_, (), ()>, _: TimerKind) {
                self.fired = true;
            }
            fn on_crash(&mut self, _: &mut Ctx<'_, (), ()>) {}
            fn on_recover(&mut self, _: &mut Ctx<'_, (), ()>) {}
        }
        let mut sim = Sim::new(1, NetConfig::default(), |_| OneShot { fired: false });
        sim.run_until(SimTime::from_ticks(50));
        assert!(!sim.node(p(0)).fired);
    }

    #[test]
    fn merge_restores_connectivity() {
        let mut sim = Sim::new(3, NetConfig::default(), |_| Gossip::new(false));
        sim.at(
            SimTime::from_ticks(1),
            Action::Partition(vec![vec![p(0)], vec![p(1), p(2)]]),
        );
        sim.at(SimTime::from_ticks(10), Action::MergeAll);
        sim.at_invoke(SimTime::from_ticks(11), p(0), |_n, ctx| ctx.broadcast(5));
        sim.run_until(SimTime::from_ticks(60));
        assert!(sim.node(p(2)).heard >= 1);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut sim = Sim::new(1, NetConfig::default(), |_| Gossip::new(false));
        sim.run_until(SimTime::from_ticks(1234));
        assert_eq!(sim.now(), SimTime::from_ticks(1234));
        assert!(sim.quiescent());
    }

    #[test]
    fn trace_survives_crash() {
        let mut sim = Sim::new(2, NetConfig::default(), |_| Gossip::new(false));
        sim.at_invoke(SimTime::from_ticks(1), p(0), |_n, ctx| ctx.broadcast(3));
        sim.run_until(SimTime::from_ticks(20));
        assert!(!sim.trace(p(1)).is_empty());
        sim.crash(p(1));
        assert!(!sim.trace(p(1)).is_empty(), "trace must survive the crash");
    }
}
