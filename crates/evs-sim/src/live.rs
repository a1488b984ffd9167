//! A live, multi-threaded driver for the same [`Node`] state machines the
//! simulator runs.
//!
//! The protocol stacks in this workspace are sans-I/O: they only ever see
//! messages, timers and a clock. [`Sim`](crate::Sim) drives them from a
//! deterministic event queue; [`LiveNet`] drives them from real operating
//! system threads and `std::sync::mpsc` channels, with real time as the clock
//! (1 tick = 100 µs). Nothing in the protocol crates changes — which is
//! the point: the deterministic test results transfer to a concurrent
//! deployment of the very same code.
//!
//! The live driver supports the full fault vocabulary of the simulator:
//! partitions via a shared topology, crash/recovery preserving stable
//! storage, and — through per-link [`LinkFault`] policies — probabilistic
//! message loss, bounded latency/jitter, duplication and reordering.
//! Faults are applied on the receiving node's delivery thread, so they
//! interleave with real concurrency, and policies can be reconfigured at
//! runtime (a chaos plan's `droppct`/`delay` steps apply mid-run). The
//! driver collects the same traces as the simulator, so the specification
//! checkers run unchanged on live runs.
//!
//! The worker loop is event-driven: each iteration fires every due
//! timer, then parks on the inbox until the earliest armed deadline
//! (timer or held-back packet). With the engine's deadline-computed
//! `TICK` rearming (see DESIGN.md "The deadline timer wheel") a loaded
//! worker never sleeps between messages and an idle worker burns no CPU
//! — the parked share is attributed to [`Phase::Park`]. Timers firing at
//! the top of every iteration (not only when the inbox wait times out)
//! is what keeps retransmission and failure-detection deadlines honest
//! on a flooded node.

use crate::node::{Ctx, Effect, Node, TimerId, TimerKind};
use crate::{ProcessId, SimTime, StableStore, Topology};
use evs_telemetry::{Phase, PhaseClock, Telemetry, TelemetryEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One simulator tick worth of real time.
const TICK: Duration = Duration::from_micros(100);

/// Extra holdback (in ticks) applied to reordered packets and duplicate
/// echoes, beyond any configured latency: long enough that undelayed
/// later traffic overtakes, short enough to stay inside protocol timeouts.
const SHUFFLE_TICKS: u64 = 4;

/// A per-link fault-injection policy for [`LiveNet`].
///
/// Each ordered pair of distinct processes (`from` → `to`) carries its own
/// policy, applied on the receiving node's delivery thread from a seeded
/// per-link random stream. The default policy is a perfect link. Loopback
/// delivery (a node to itself) is always reliable, mirroring the
/// simulator.
///
/// # Examples
///
/// ```
/// use evs_sim::LinkFault;
///
/// let lossy = LinkFault::lossy(30);          // 30% drop
/// let slow = LinkFault::delayed(1, 2);       // 1–2 ticks of jitter
/// assert!(LinkFault::default().is_none());
/// assert!(!lossy.is_none());
/// assert_eq!(slow.delay_hi, 2);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkFault {
    /// Probability, in percent (0–100), that a packet is dropped.
    pub drop_pct: u8,
    /// Lower bound of added latency, in ticks (0 disables delay).
    pub delay_lo: u64,
    /// Upper bound of added latency, in ticks; jitter is uniform in
    /// `delay_lo..=delay_hi`.
    pub delay_hi: u64,
    /// Probability, in percent, that a delivered packet is also delivered
    /// a second time shortly afterwards.
    pub dup_pct: u8,
    /// Probability, in percent, that a packet is held back a few ticks so
    /// later traffic on the same link overtakes it.
    pub reorder_pct: u8,
}

impl LinkFault {
    /// A policy that only drops: each packet lost with probability
    /// `drop_pct` percent.
    pub fn lossy(drop_pct: u8) -> LinkFault {
        LinkFault {
            drop_pct,
            ..LinkFault::default()
        }
    }

    /// A policy that only delays: uniform jitter in `lo..=hi` ticks.
    pub fn delayed(lo: u64, hi: u64) -> LinkFault {
        LinkFault {
            delay_lo: lo,
            delay_hi: hi,
            ..LinkFault::default()
        }
    }

    /// True for the default (perfect-link) policy.
    pub fn is_none(&self) -> bool {
        *self == LinkFault::default()
    }
}

/// A boxed closure run against a node on its own thread.
type NodeFn<N> = Box<dyn FnOnce(&mut N, &mut Ctx<'_, <N as Node>::Msg, <N as Node>::Ev>) + Send>;
/// A boxed read-only closure over a node and its trace.
type InspectFn<N> = Box<dyn FnOnce(&N, &[(SimTime, <N as Node>::Ev)]) + Send>;
/// A node's final state and trace, as returned by [`LiveNet::shutdown`].
pub type NodeResult<N> = (N, Vec<(SimTime, <N as Node>::Ev)>);

enum Packet<N: Node> {
    Deliver { from: ProcessId, msg: N::Msg },
    Crash,
    Kill,
    Recover,
    Invoke(NodeFn<N>),
    Inspect(InspectFn<N>),
    Shutdown,
}

// The shared tables stay valid at every step of every update (one
// assignment or one `Topology` call each), so a lock poisoned by a
// panicking test thread is recovered rather than cascaded to the workers.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

struct Shared<N: Node> {
    senders: Vec<Sender<Packet<N>>>,
    topology: RwLock<Topology>,
    /// Fault policy per ordered link, indexed `[from][to]`.
    faults: RwLock<Vec<Vec<LinkFault>>>,
    /// Base seed for the per-link random streams (read at first use of
    /// each link's stream).
    fault_seed: AtomicU64,
    telemetry: Vec<Telemetry>,
}

struct Worker<N: Node> {
    me: ProcessId,
    node: N,
    shared: Arc<Shared<N>>,
    inbox: Receiver<Packet<N>>,
    stable: StableStore,
    trace: Vec<(SimTime, N::Ev)>,
    next_timer_id: u64,
    timers: Vec<(Instant, TimerId, TimerKind)>,
    cancelled: HashSet<TimerId>,
    alive: bool,
    epoch: Instant,
    telemetry: Telemetry,
    /// One seeded random stream per sending peer, created lazily the
    /// first time that link applies a non-default fault policy.
    link_rngs: Vec<Option<SmallRng>>,
    /// Packets held back by a delay/reorder/duplication fault, with the
    /// instant they become deliverable.
    holdback: Vec<(Instant, ProcessId, N::Msg)>,
    /// Chained wall-clock phase attribution of the run loop (no-op when
    /// telemetry is detached). See DESIGN.md "Phase timers".
    phase: PhaseClock,
}

impl<N: Node> Worker<N> {
    fn now(&self) -> SimTime {
        SimTime::from_ticks((self.epoch.elapsed().as_micros() / TICK.as_micros()) as u64)
    }

    fn dispatch(&mut self, f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Ev>)) {
        let now = self.now();
        let mut ctx = Ctx {
            pid: self.me,
            now,
            effects: Vec::new(),
            stable: &mut self.stable,
            trace: &mut self.trace,
            next_timer_id: &mut self.next_timer_id,
            telemetry: self.telemetry.clone(),
        };
        f(&mut self.node, &mut ctx);
        let effects = ctx.effects;
        for effect in effects {
            match effect {
                Effect::Broadcast(msg) => {
                    // Collect the reachable targets first so the last one
                    // can take the message by move instead of a clone.
                    let topo = read(&self.shared.topology);
                    let targets: Vec<usize> = (0..self.shared.senders.len())
                        .filter(|&i| topo.reachable(self.me, ProcessId::new(i as u32)))
                        .collect();
                    let mut msg = Some(msg);
                    for (k, &i) in targets.iter().enumerate() {
                        let payload = if k + 1 == targets.len() {
                            msg.take().expect("one move per broadcast")
                        } else {
                            msg.as_ref().expect("moved only at the last target").clone()
                        };
                        let _ = self.shared.senders[i].send(Packet::Deliver {
                            from: self.me,
                            msg: payload,
                        });
                    }
                }
                Effect::Unicast(to, msg) => {
                    let topo = read(&self.shared.topology);
                    if topo.reachable(self.me, to) {
                        let _ = self.shared.senders[to.as_usize()]
                            .send(Packet::Deliver { from: self.me, msg });
                    }
                }
                Effect::SetTimer(id, delay, kind) => {
                    let deadline = Instant::now() + TICK * delay as u32;
                    self.timers.push((deadline, id, kind));
                }
                Effect::CancelTimer(id) => {
                    self.cancelled.insert(id);
                }
            }
        }
    }

    /// The per-link random stream for packets arriving from `from`,
    /// seeded deterministically from the net's fault seed and the link's
    /// endpoints.
    fn link_rng(&mut self, from: ProcessId) -> &mut SmallRng {
        let slot = &mut self.link_rngs[from.as_usize()];
        if slot.is_none() {
            let base = self.shared.fault_seed.load(Ordering::Relaxed);
            let link = ((from.as_usize() as u64) << 32) | self.me.as_usize() as u64;
            *slot = Some(SmallRng::seed_from_u64(
                base ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
        }
        slot.as_mut().expect("just initialised")
    }

    /// Applies the link's fault policy to an arriving packet: drop it,
    /// hold it back (delay / reorder / the duplicate echo), or deliver it
    /// now. Loopback packets bypass the policy entirely.
    fn admit(&mut self, from: ProcessId, msg: N::Msg) {
        let fault = read(&self.shared.faults)[from.as_usize()][self.me.as_usize()];
        if from == self.me || fault.is_none() {
            self.dispatch(|node, ctx| node.on_message(ctx, from, msg));
            return;
        }
        let at = self.now().ticks();
        let (fu, tu) = (from.as_usize() as u32, self.me.as_usize() as u32);
        let rng = self.link_rng(from);
        if fault.drop_pct > 0 && rng.gen_range(0..100u32) < u32::from(fault.drop_pct) {
            self.telemetry
                .record(at, TelemetryEvent::LinkPacketDropped { from: fu, to: tu });
            return;
        }
        let mut delay = if fault.delay_hi > 0 {
            self.link_rng(from)
                .gen_range(fault.delay_lo..=fault.delay_hi)
        } else {
            0
        };
        if fault.reorder_pct > 0
            && self.link_rng(from).gen_range(0..100u32) < u32::from(fault.reorder_pct)
        {
            // Held back long enough for undelayed later traffic on the
            // same link to overtake: reordering emerges from the race.
            delay += SHUFFLE_TICKS;
        }
        if fault.dup_pct > 0 && self.link_rng(from).gen_range(0..100u32) < u32::from(fault.dup_pct)
        {
            let echo = delay + SHUFFLE_TICKS;
            self.holdback
                .push((Instant::now() + TICK * echo as u32, from, msg.clone()));
            self.telemetry.record(
                at,
                TelemetryEvent::LinkPacketDuplicated { from: fu, to: tu },
            );
        }
        if delay == 0 {
            self.dispatch(|node, ctx| node.on_message(ctx, from, msg));
        } else {
            self.telemetry.record(
                at,
                TelemetryEvent::LinkPacketDelayed {
                    from: fu,
                    to: tu,
                    ticks: delay,
                },
            );
            self.holdback
                .push((Instant::now() + TICK * delay as u32, from, msg));
        }
    }

    /// Delivers every held-back packet whose deadline has passed. The
    /// fault policy was already applied on arrival; only liveness and
    /// reachability are re-checked, like a packet sitting in the channel.
    fn flush_holdback(&mut self) {
        let now = Instant::now();
        while let Some(pos) = self.holdback.iter().position(|(at, _, _)| *at <= now) {
            let (_, from, msg) = self.holdback.remove(pos);
            if self.alive && read(&self.shared.topology).reachable(from, self.me) {
                self.dispatch(|node, ctx| node.on_message(ctx, from, msg));
            }
        }
    }

    /// Fires every pending timer whose deadline has passed. Called on
    /// every loop iteration — not just when the inbox wait times out —
    /// so a node flooded with messages still serves its protocol
    /// deadlines (retransmission backoff, failure detection) on time.
    /// Under the event-driven engine this is what makes the deadline
    /// wheel authoritative: arming a timer guarantees a callback at
    /// (or just after) the deadline regardless of inbox pressure.
    fn fire_due_timers(&mut self) {
        if !self.alive || self.timers.is_empty() {
            return;
        }
        let now = Instant::now();
        let due: Vec<(TimerId, TimerKind)> = {
            let (ready, pending): (Vec<_>, Vec<_>) =
                self.timers.drain(..).partition(|(at, _, _)| *at <= now);
            self.timers = pending;
            ready.into_iter().map(|(_, id, kind)| (id, kind)).collect()
        };
        for (id, kind) in due {
            if !self.cancelled.remove(&id) {
                self.dispatch(|node, ctx| node.on_timer(ctx, kind));
            }
        }
    }

    fn run(mut self) -> NodeResult<N> {
        self.dispatch(|node, ctx| node.on_start(ctx));
        self.phase.mark(Phase::Dispatch);
        loop {
            self.flush_holdback();
            self.fire_due_timers();
            self.phase.mark(Phase::Timers);
            // Earliest pending timer or held-back packet decides the wait.
            self.timers.sort_by_key(|(at, _, _)| *at);
            let next_timer = self.timers.first().map(|(at, _, _)| *at);
            let next_hold = self.holdback.iter().map(|(at, _, _)| *at).min();
            let timeout = match (next_timer, next_hold) {
                (Some(t), Some(h)) => t.min(h).saturating_duration_since(Instant::now()),
                (Some(t), None) => t.saturating_duration_since(Instant::now()),
                (None, Some(h)) => h.saturating_duration_since(Instant::now()),
                // Nothing armed: park until the next packet or command
                // (any inbox send wakes the wait; the bound is only a
                // backstop against a lost wakeup).
                (None, None) => Duration::from_millis(50),
            };
            match self.inbox.recv_timeout(timeout) {
                Ok(Packet::Deliver { from, msg }) => {
                    // Time blocked in a receive that yielded a packet.
                    self.phase.mark(Phase::Recv);
                    if self.alive {
                        // Check reachability at delivery time too, like the
                        // simulator: a partition formed while the packet
                        // sat in the channel drops it.
                        let reachable = read(&self.shared.topology).reachable(from, self.me);
                        if reachable {
                            let token = N::is_token(&msg);
                            self.admit(from, msg);
                            self.phase
                                .mark(if token { Phase::Token } else { Phase::Dispatch });
                        }
                    }
                }
                Ok(Packet::Crash) => {
                    if self.alive {
                        self.alive = false;
                        self.timers.clear();
                        self.cancelled.clear();
                        self.holdback.clear();
                        // Same contract as the simulator: the node may log
                        // its failure and persist, but sends are dropped.
                        let now = self.now();
                        let mut ctx = Ctx {
                            pid: self.me,
                            now,
                            effects: Vec::new(),
                            stable: &mut self.stable,
                            trace: &mut self.trace,
                            next_timer_id: &mut self.next_timer_id,
                            telemetry: self.telemetry.clone(),
                        };
                        self.node.on_crash(&mut ctx);
                    }
                    self.phase.mark(Phase::Control);
                }
                Ok(Packet::Kill) => {
                    // `kill -9`: no farewell callback — only state the node
                    // journaled while running survives to the recover.
                    if self.alive {
                        self.alive = false;
                        self.timers.clear();
                        self.cancelled.clear();
                        self.holdback.clear();
                    }
                    self.phase.mark(Phase::Control);
                }
                Ok(Packet::Recover) => {
                    if !self.alive {
                        self.alive = true;
                        self.dispatch(|node, ctx| node.on_recover(ctx));
                    }
                    self.phase.mark(Phase::Control);
                }
                Ok(Packet::Invoke(f)) => {
                    if self.alive {
                        self.dispatch(f);
                    }
                    self.phase.mark(Phase::Control);
                }
                Ok(Packet::Inspect(f)) => {
                    f(&self.node, &self.trace);
                    self.phase.mark(Phase::Control);
                }
                Ok(Packet::Shutdown) => return (self.node, self.trace),
                Err(RecvTimeoutError::Timeout) => {
                    // The whole blocked wait was a park: the worker slept
                    // in the kernel until the next protocol deadline with
                    // nothing to do — the *intended* idleness of an
                    // event-driven loop, as opposed to the old fixed-tick
                    // busy-sleep this loop replaced. The due timers fire
                    // at the top of the next iteration.
                    self.phase.mark(Phase::Park);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return (self.node, self.trace);
                }
            }
        }
    }
}

/// A live network of [`Node`]s, one OS thread each, connected by channels.
///
/// # Examples
///
/// See `tests/live_driver.rs` in this crate, which runs the same gossip
/// node under both drivers, and the workspace test `tests/live_stack.rs`,
/// which runs the full EVS stack over threads and feeds the resulting
/// trace to the specification checker.
pub struct LiveNet<N: Node + Send + 'static>
where
    N::Msg: Send,
    N::Ev: Send,
{
    shared: Arc<Shared<N>>,
    handles: Vec<JoinHandle<NodeResult<N>>>,
}

impl<N: Node + Send + 'static> LiveNet<N>
where
    N::Msg: Send,
    N::Ev: Send,
{
    /// Spawns `n` nodes built by `make`, fully connected, with telemetry
    /// detached.
    pub fn spawn(n: usize, make: impl FnMut(ProcessId) -> N) -> Self {
        LiveNet::spawn_inner(n, make, false)
    }

    /// Like [`LiveNet::spawn`], but attaches an enabled [`Telemetry`] handle
    /// to every node. Node threads update instruments concurrently; the
    /// caller snapshots through [`LiveNet::telemetry`] /
    /// [`LiveNet::telemetry_handles`] at any time.
    pub fn spawn_with_telemetry(n: usize, make: impl FnMut(ProcessId) -> N) -> Self {
        LiveNet::spawn_inner(n, make, true)
    }

    fn spawn_inner(n: usize, mut make: impl FnMut(ProcessId) -> N, telemetry: bool) -> Self {
        let mut senders = Vec::with_capacity(n);
        let mut inboxes = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        let telemetry: Vec<Telemetry> = (0..n as u32)
            .map(|i| {
                if telemetry {
                    Telemetry::enabled(i)
                } else {
                    Telemetry::disabled()
                }
            })
            .collect();
        let shared = Arc::new(Shared {
            senders,
            topology: RwLock::new(Topology::fully_connected(n)),
            faults: RwLock::new(vec![vec![LinkFault::default(); n]; n]),
            fault_seed: AtomicU64::new(0),
            telemetry,
        });
        let epoch = Instant::now();
        let handles = inboxes
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| {
                let me = ProcessId::new(i as u32);
                let worker = Worker {
                    me,
                    node: make(me),
                    shared: Arc::clone(&shared),
                    inbox,
                    stable: StableStore::new(),
                    trace: Vec::new(),
                    next_timer_id: 0,
                    timers: Vec::new(),
                    cancelled: HashSet::new(),
                    alive: true,
                    epoch,
                    telemetry: shared.telemetry[i].clone(),
                    link_rngs: vec![None; n],
                    holdback: Vec::new(),
                    phase: PhaseClock::new(&shared.telemetry[i]),
                };
                std::thread::spawn(move || worker.run())
            })
            .collect();
        LiveNet { shared, handles }
    }

    /// The telemetry handle of process `p` (detached unless spawned with
    /// [`LiveNet::spawn_with_telemetry`]).
    pub fn telemetry(&self, p: ProcessId) -> &Telemetry {
        &self.shared.telemetry[p.as_usize()]
    }

    /// Every process's telemetry handle, in process order.
    pub fn telemetry_handles(&self) -> Vec<Telemetry> {
        self.shared.telemetry.clone()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Always false (a live net has at least one node by construction).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Repartitions the live network (applies to packets not yet
    /// delivered, like the simulator's delivery-time check).
    pub fn partition(&self, groups: &[Vec<ProcessId>]) {
        write(&self.shared.topology).split(groups);
    }

    /// Reconnects everything.
    pub fn merge_all(&self) {
        write(&self.shared.topology).merge_all();
    }

    /// Seeds the per-link fault random streams. Each link's stream is
    /// created from this base the first time it applies a non-default
    /// policy, so set the seed before installing policies for it to take
    /// effect on every link.
    pub fn set_fault_seed(&self, seed: u64) {
        self.shared.fault_seed.store(seed, Ordering::Relaxed);
    }

    /// Installs a fault policy on one directed link. Takes effect for
    /// packets delivered from then on, including packets already sitting
    /// in the channel (the policy is read on the delivery thread).
    pub fn set_link_fault(&self, from: ProcessId, to: ProcessId, fault: LinkFault) {
        write(&self.shared.faults)[from.as_usize()][to.as_usize()] = fault;
    }

    /// Installs `fault` on every inter-node link (loopback stays
    /// reliable, mirroring the simulator's network model).
    pub fn set_fault_all(&self, fault: LinkFault) {
        let mut table = write(&self.shared.faults);
        for (from, row) in table.iter_mut().enumerate() {
            for (to, slot) in row.iter_mut().enumerate() {
                if from != to {
                    *slot = fault;
                }
            }
        }
    }

    /// Heals every link back to the perfect-link default. Packets already
    /// held back by an earlier delay policy still deliver at their
    /// scheduled instant.
    pub fn clear_faults(&self) {
        self.set_fault_all(LinkFault::default());
    }

    /// The current fault policy of one directed link.
    pub fn link_fault(&self, from: ProcessId, to: ProcessId) -> LinkFault {
        read(&self.shared.faults)[from.as_usize()][to.as_usize()]
    }

    /// Crashes a node (volatile state lost, stable storage kept).
    pub fn crash(&self, p: ProcessId) {
        let _ = self.shared.senders[p.as_usize()].send(Packet::Crash);
    }

    /// Recovers a crashed node under the same identifier.
    pub fn recover(&self, p: ProcessId) {
        let _ = self.shared.senders[p.as_usize()].send(Packet::Recover);
    }

    /// Kills `p` outright (`kill -9`): unlike [`LiveNet::crash`] the node
    /// gets no `on_crash` callback, so only state it already journaled
    /// (e.g. a write-ahead log) is available to a later
    /// [`LiveNet::recover`].
    pub fn kill(&self, p: ProcessId) {
        let _ = self.shared.senders[p.as_usize()].send(Packet::Kill);
    }

    /// Runs a closure on the node's thread (e.g. to submit a message).
    pub fn invoke(
        &self,
        p: ProcessId,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Ev>) + Send + 'static,
    ) {
        let _ = self.shared.senders[p.as_usize()].send(Packet::Invoke(Box::new(f)));
    }

    /// Synchronously inspects a node's state and trace from the caller's
    /// thread, returning the closure's result.
    pub fn inspect<R: Send + 'static>(
        &self,
        p: ProcessId,
        f: impl FnOnce(&N, &[(SimTime, N::Ev)]) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = channel();
        let _ = self.shared.senders[p.as_usize()].send(Packet::Inspect(Box::new(
            move |node, trace| {
                let _ = tx.send(f(node, trace));
            },
        )));
        rx.recv().expect("node thread alive")
    }

    /// Polls `pred` (evaluated against every node) until it holds or the
    /// timeout expires. Returns whether it held.
    pub fn wait_until(
        &self,
        timeout: Duration,
        pred: impl FnMut(&N) -> bool + Send + Clone + 'static,
    ) -> bool {
        let all: Vec<ProcessId> = (0..self.len()).map(|i| ProcessId::new(i as u32)).collect();
        self.wait_until_on(&all, timeout, pred)
    }

    /// Like [`LiveNet::wait_until`], restricted to the named nodes (e.g.
    /// the survivors of a crash — a crashed node's state is frozen and
    /// would never satisfy a liveness predicate).
    pub fn wait_until_on(
        &self,
        nodes: &[ProcessId],
        timeout: Duration,
        pred: impl FnMut(&N) -> bool + Send + Clone + 'static,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let mut all = true;
            for &p in nodes {
                let pr = pred.clone();
                if !self.inspect(p, move |node, _| {
                    let mut pr = pr;
                    pr(node)
                }) {
                    all = false;
                    break;
                }
            }
            if all {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            // Poll fast: with the event-driven workers a settled state is
            // typically reached within a handful of ticks, and a 5 ms
            // poll interval would dominate short live benches.
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Shuts the network down and returns every node with its trace.
    pub fn shutdown(self) -> Vec<NodeResult<N>> {
        for tx in &self.shared.senders {
            let _ = tx.send(Packet::Shutdown);
        }
        self.handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect()
    }
}
