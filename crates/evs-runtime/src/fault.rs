//! Link faults as a [`SocketDriver`] decorator.
//!
//! [`FaultyDriver`] wraps any driver — the in-memory medium or a real UDP
//! socket — and applies, on the receive side, the shared [`Faults`] table:
//! the partition [`Topology`] and one [`LinkFault`] policy per ordered
//! pair of members, each drawn from a seeded per-link random stream. The
//! worker behind it sees only a medium that loses, delays and repeats
//! datagrams; it has no fault code of its own. Datagrams from non-member
//! addresses (control, scrape and wake traffic) and a member's loopback
//! to itself pass untouched.

use crate::{ticks_since, TICK};
use evs_net::{Completion, SocketDriver};
use evs_sim::{ProcessId, Topology};
use evs_telemetry::{Telemetry, TelemetryEvent};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Extra holdback (in ticks) applied to reordered packets and duplicate
/// echoes, beyond any configured latency: long enough that undelayed
/// later traffic overtakes, short enough to stay inside protocol timeouts.
const SHUFFLE_TICKS: u64 = 4;

/// The fault policy of one directed link (`from` → `to`). The default is
/// a perfect link.
///
/// ```
/// use evs_runtime::LinkFault;
///
/// let lossy = LinkFault::lossy(30); // 30% drop
/// assert!(!lossy.is_none() && LinkFault::default().is_none());
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
    /// A policy that only drops, with probability `drop_pct` percent.
    pub fn lossy(drop_pct: u8) -> LinkFault {
        LinkFault {
            drop_pct,
            ..LinkFault::default()
        }
    }

    /// True for the default (perfect-link) policy.
    pub fn is_none(&self) -> bool {
        *self == LinkFault::default()
    }
}

struct Table {
    topology: Topology,
    /// Fault policy per ordered link, indexed `[from][to]`.
    links: Vec<Vec<LinkFault>>,
    /// Base seed of the per-link random streams.
    seed: u64,
}

/// The fault state every [`FaultyDriver`] of one cluster shares: who can
/// reach whom, and how each link misbehaves. Reconfigurable while the
/// cluster runs; a change applies to datagrams not yet received.
pub struct Faults {
    table: RwLock<Table>,
    /// Datagrams the drivers receiving through this table hold back.
    held: AtomicUsize,
}

impl Faults {
    /// `n` fully connected members over perfect links.
    pub fn new(n: usize) -> Arc<Faults> {
        Arc::new(Faults {
            table: RwLock::new(Table {
                topology: Topology::fully_connected(n),
                links: vec![vec![LinkFault::default(); n]; n],
                seed: 0,
            }),
            held: AtomicUsize::new(0),
        })
    }

    /// Datagrams every [`FaultyDriver`] on this table holds back right
    /// now: each is still to arrive, however settled its receiver looks.
    pub fn held(&self) -> usize {
        self.held.load(Ordering::SeqCst)
    }

    // Every update is one assignment or one `Topology` call, so the table
    // is valid at every step and a lock poisoned by a panicking test
    // thread is recovered rather than cascaded to the workers.
    fn write(&self) -> RwLockWriteGuard<'_, Table> {
        self.table.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Repartitions the network into `groups`.
    pub fn partition(&self, groups: &[Vec<ProcessId>]) {
        self.write().topology.split(groups);
    }

    /// Reconnects everything.
    pub fn merge_all(&self) {
        self.write().topology.merge_all();
    }

    /// Seeds the per-link random streams. A link's stream is created from
    /// this base the first time it applies a non-default policy, so set
    /// the seed before installing policies.
    pub fn set_seed(&self, seed: u64) {
        self.write().seed = seed;
    }

    /// Installs a policy on one directed link.
    pub fn set_link(&self, from: ProcessId, to: ProcessId, fault: LinkFault) {
        self.write().links[from.as_usize()][to.as_usize()] = fault;
    }

    /// Installs `fault` on every link between distinct members
    /// ([`LinkFault::default`] heals them; datagrams already held back
    /// still arrive at their scheduled instant).
    pub fn set_all(&self, fault: LinkFault) {
        for (from, row) in self.write().links.iter_mut().enumerate() {
            for (to, slot) in row.iter_mut().enumerate() {
                if from != to {
                    *slot = fault;
                }
            }
        }
    }
}

/// A [`SocketDriver`] that receives through a [`Faults`] table.
pub struct FaultyDriver {
    inner: Box<dyn SocketDriver>,
    me: ProcessId,
    /// Member addresses, indexed by process.
    peers: Vec<SocketAddr>,
    faults: Arc<Faults>,
    /// One random stream per sending peer, created at first use.
    rngs: Vec<Option<SmallRng>>,
    /// Datagrams held back by a delay, reorder or duplicate decision:
    /// `(receivable at, sender, bytes)`, counted in [`Faults::held`].
    held: Vec<(Instant, usize, Vec<u8>)>,
    telemetry: Telemetry,
    /// Tick zero of the recorded events.
    epoch: Instant,
}

impl FaultyDriver {
    /// Wraps member `me`'s driver; `peers` lists every member's address
    /// in process order.
    pub fn new(
        inner: Box<dyn SocketDriver>,
        me: ProcessId,
        peers: Vec<SocketAddr>,
        faults: Arc<Faults>,
        telemetry: Telemetry,
    ) -> FaultyDriver {
        FaultyDriver {
            inner,
            me,
            rngs: vec![None; peers.len()],
            peers,
            faults,
            held: Vec::new(),
            telemetry,
            epoch: Instant::now(),
        }
    }

    /// The policy and stream seed of the link from `from`, unless a
    /// partition separates the two.
    fn link(&self, from: usize) -> Option<(LinkFault, u64)> {
        let table = self
            .faults
            .table
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let reachable = table
            .topology
            .reachable(ProcessId::new(from as u32), self.me);
        reachable.then(|| (table.links[from][self.me.as_usize()], table.seed))
    }

    /// Applies partition and link policy to one arriving datagram: drop
    /// it, hold it back, or pass it to `out` now.
    fn admit(&mut self, from_addr: SocketAddr, datagram: Vec<u8>, out: &mut Vec<Completion>) {
        let me = self.me.as_usize();
        let Some(from) = self.peers.iter().position(|a| *a == from_addr) else {
            return out.push((from_addr, datagram));
        };
        let Some((fault, seed)) = self.link(from) else {
            return;
        };
        if from == me || fault.is_none() {
            return out.push((from_addr, datagram));
        }
        let rng = self.rngs[from].get_or_insert_with(|| {
            let link = ((from as u64) << 32) | me as u64;
            SmallRng::seed_from_u64(seed ^ link.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        });
        let roll =
            |rng: &mut SmallRng, pct: u8| pct > 0 && rng.gen_range(0..100u32) < u32::from(pct);
        let (at, now) = (ticks_since(self.epoch), Instant::now());
        // `sender` indexes `peers`; `from` / `to` are the telemetry's names.
        let (sender, from, to) = (from, from as u32, me as u32);
        if roll(rng, fault.drop_pct) {
            let event = TelemetryEvent::LinkPacketDropped { from, to };
            return self.telemetry.record(at, event);
        }
        let mut ticks = 0;
        if fault.delay_hi > 0 {
            ticks = rng.gen_range(fault.delay_lo..=fault.delay_hi);
        }
        if roll(rng, fault.reorder_pct) {
            // Held back long enough for undelayed later traffic on the
            // same link to overtake: reordering emerges from the race.
            ticks += SHUFFLE_TICKS;
        }
        if roll(rng, fault.dup_pct) {
            let echo = now + TICK * (ticks + SHUFFLE_TICKS) as u32;
            self.hold(echo, sender, datagram.clone());
            let event = TelemetryEvent::LinkPacketDuplicated { from, to };
            self.telemetry.record(at, event);
        }
        if ticks == 0 {
            return out.push((from_addr, datagram));
        }
        self.hold(now + TICK * ticks as u32, sender, datagram);
        let event = TelemetryEvent::LinkPacketDelayed { from, to, ticks };
        self.telemetry.record(at, event);
    }

    fn hold(&mut self, at: Instant, sender: usize, datagram: Vec<u8>) {
        self.faults.held.fetch_add(1, Ordering::SeqCst);
        self.held.push((at, sender, datagram));
    }
}

impl Drop for FaultyDriver {
    fn drop(&mut self) {
        let held = self.held.len();
        self.faults.held.fetch_sub(held, Ordering::SeqCst);
    }
}

impl SocketDriver for FaultyDriver {
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn push(&mut self, to: SocketAddr, payload: Vec<u8>) {
        self.inner.push(to, payload);
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn submit(&mut self) -> io::Result<usize> {
        self.inner.submit()
    }

    fn complete(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Completion>,
    ) -> io::Result<usize> {
        let before = out.len();
        // Release what is due. The policy was applied on arrival; only
        // reachability is re-checked, like a packet that sat in a queue
        // while a partition formed.
        let now = Instant::now();
        while let Some(pos) = self.held.iter().position(|(at, ..)| *at <= now) {
            let (_, from, datagram) = self.held.remove(pos);
            self.faults.held.fetch_sub(1, Ordering::SeqCst);
            if self.link(from).is_some() {
                out.push((self.peers[from], datagram));
            }
        }
        // Wait no longer than the earliest held-back datagram, and not at
        // all once one has been released.
        let next_release = self.held.iter().map(|(at, ..)| *at).min();
        let timeout = match (timeout, next_release) {
            _ if out.len() > before => None,
            (Some(t), Some(at)) => Some(t.min(at.saturating_duration_since(now))),
            (t, _) => t,
        };
        let arrived = out.len();
        let result = self.inner.complete(timeout, out);
        for (from_addr, datagram) in out.split_off(arrived) {
            self.admit(from_addr, datagram, out);
        }
        result.map(|_| out.len() - before)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_datagram(&self) -> usize {
        self.inner.max_datagram()
    }
}
