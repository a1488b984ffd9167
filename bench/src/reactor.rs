//! The single-threaded reactor: `n` `EvsProcess` nodes, one transport and
//! one storage per node, a clock, and the SIGKILL-style fault injector.
//!
//! It drives the engine through the same public seam as
//! `examples/udp_cluster.rs` (`Ctx::detached` + `take_effects`, encode once,
//! pack per destination, one `submit` per dispatch), but owns every node on
//! one thread: the machine has two cores, and a thread per ring member
//! would measure the scheduler. Every call into a layer goes through here,
//! which is where the spans and counters are taken.

use crate::edge::{discard_unsynced_tail, Hub, MemDriver, TimedDriver, TimedStorage};
use crate::trace::{self, count, span, Sp, METERS};
use bytes::BytesMut;
use evs_core::{wire, Delivery, EvsEvent, EvsMsg, EvsParams, EvsProcess, Payload};
use evs_membership::MembMsg;
use evs_net::{Completion, SocketDriver, MAX_DATAGRAM};
use evs_order::RingMsg;
use evs_sim::{Ctx, Effect, Node, ProcessId, SimTime, StableStore, TimerId, TimerKind};
use evs_store::{FileStorage, NullStorage, Storage};
use std::net::{SocketAddr, UdpSocket};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One protocol tick of wall-clock time, as deployed (`udp_cluster`).
pub const TICK: Duration = Duration::from_micros(200);

type Ectx<'a> = Ctx<'a, EvsMsg<Payload>, EvsEvent>;

/// What a cluster is built from.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub n: usize,
    /// Real loopback UDP through `evs_net::driver_for` (else in-memory).
    pub udp: bool,
    /// `FileStorage` write-ahead log per node (else `NullStorage`).
    pub wal: bool,
}

/// Protocol time. Formation always runs on the wall clock; CPU-bound
/// workloads then switch to one tick per sweep, so their instruction stream
/// and every count repeat exactly.
enum Clock {
    Wall { since: Instant },
    Virtual { ticks: u64 },
}

impl Clock {
    fn ticks(&self) -> u64 {
        match self {
            Clock::Wall { since } => (since.elapsed().as_micros() / TICK.as_micros()) as u64,
            Clock::Virtual { ticks } => *ticks,
        }
    }
}

struct Slot {
    me: ProcessId,
    addr: SocketAddr,
    /// `None` while killed.
    node: Option<EvsProcess<Payload>>,
    driver: Option<Box<dyn SocketDriver>>,
    stable: StableStore,
    trace: Vec<(SimTime, EvsEvent)>,
    next_timer_id: u64,
    /// `(due tick, id, kind)`.
    timers: Vec<(u64, TimerId, TimerKind)>,
    /// Reused for every outgoing frame encoding.
    scratch: BytesMut,
    /// One datagram under construction per destination.
    outbox: Vec<BytesMut>,
    wal_dir: PathBuf,
    /// Bytes appended to the WAL since its last sync.
    unsynced: Arc<AtomicU64>,
}

/// What the reactor saw at the engine boundary that the recovery metrics
/// are made of.
#[derive(Clone, Copy, Default, Debug)]
pub struct Observed {
    /// When a survivor first sent a membership `Join` (armed by `kill`).
    pub first_join_ns: Option<u64>,
    pub exchange_frame_bytes_max: u64,
}

/// Receives what the engine hands to the application.
pub trait Sink {
    fn delivered(&mut self, member: usize, delivery: Delivery<Payload>);
}

pub struct Cluster {
    spec: Spec,
    params: EvsParams,
    slots: Vec<Slot>,
    peers: Vec<SocketAddr>,
    clock: Clock,
    hub: Arc<Mutex<Hub>>,
    inbox: Vec<Completion>,
    /// Keep per-node `EvsEvent` traces (verification epochs only); timed
    /// epochs clear them every sweep so the harness retains nothing per op.
    keep_trace: bool,
    pub observed: Observed,
    watch_joins: bool,
}

fn open_storage(
    spec: Spec,
    dir: &PathBuf,
    unsynced: &Arc<AtomicU64>,
) -> Result<Box<dyn Storage>, String> {
    let inner: Box<dyn Storage> = if spec.wal {
        Box::new(FileStorage::open(dir).map_err(|e| format!("open WAL {}: {e}", dir.display()))?)
    } else {
        Box::new(NullStorage::new())
    };
    unsynced.store(0, Relaxed);
    Ok(TimedStorage::boxed(inner, spec.wal, Arc::clone(unsynced)))
}

impl Cluster {
    /// Binds the sockets and opens the storage of `spec.n` nodes and starts
    /// them; `wal_root` is emptied first and holds one directory per node.
    pub fn start(
        spec: Spec,
        keep_trace: bool,
        wal_root: PathBuf,
        sink: &mut dyn Sink,
    ) -> Result<Cluster, String> {
        let _ = std::fs::remove_dir_all(&wal_root);
        let hub = Arc::new(Mutex::new(Hub::default()));
        let mut drivers: Vec<Box<dyn SocketDriver>> = Vec::new();
        for i in 0..spec.n {
            drivers.push(if spec.udp {
                let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
                evs_net::driver_for(socket).map_err(|e| format!("socket driver: {e}"))?
            } else {
                // Addresses of the in-memory medium; nothing binds them.
                let addr = SocketAddr::from(([127, 0, 0, 1], 20_000 + i as u16));
                Box::new(MemDriver::bind(&hub, addr))
            });
        }
        let peers: Vec<SocketAddr> = drivers
            .iter()
            .map(|d| d.local_addr().map_err(|e| format!("local_addr: {e}")))
            .collect::<Result<_, _>>()?;
        let params = EvsParams::default();
        let mut slots = Vec::new();
        for (i, driver) in drivers.into_iter().enumerate() {
            let me = ProcessId::new(i as u32);
            let wal_dir = wal_root.join(format!("p{i}"));
            let unsynced = Arc::new(AtomicU64::new(0));
            let storage = open_storage(spec, &wal_dir, &unsynced)?;
            slots.push(Slot {
                me,
                addr: peers[i],
                node: Some(EvsProcess::with_storage(me, params.clone(), storage)),
                driver: Some(TimedDriver::boxed(driver, spec.udp, true)),
                stable: StableStore::new(),
                trace: Vec::new(),
                next_timer_id: 0,
                timers: Vec::new(),
                scratch: BytesMut::with_capacity(4096),
                outbox: (0..spec.n).map(|_| BytesMut::with_capacity(8192)).collect(),
                wal_dir,
                unsynced,
            });
        }
        let mut cluster = Cluster {
            spec,
            params,
            slots,
            peers,
            clock: Clock::Wall {
                since: Instant::now(),
            },
            hub,
            inbox: Vec::with_capacity(evs_net::RECV_BATCH),
            keep_trace,
            observed: Observed::default(),
            watch_joins: false,
        };
        for i in 0..spec.n {
            cluster.dispatch(i, Sp::EngineStart, |node, ctx| node.on_start(ctx));
        }
        cluster.collect_deliveries(sink);
        Ok(cluster)
    }

    /// Sweeps on the wall clock until every node is settled in one regular
    /// configuration of all `n` members.
    pub fn form(&mut self, sink: &mut dyn Sink, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while !self.all_settled() {
            if Instant::now() > deadline {
                return Err(format!(
                    "{} nodes did not form one configuration",
                    self.spec.n
                ));
            }
            self.sweep(sink);
        }
        Ok(())
    }

    /// True when every node is up and settled in a configuration of all `n`.
    fn all_settled(&self) -> bool {
        self.slots.iter().all(|s| {
            s.node.as_ref().is_some_and(|node| {
                node.is_settled() && node.current_config().members.len() == self.spec.n
            })
        })
    }

    /// Switches protocol time from the wall clock to one tick per sweep.
    pub fn use_virtual_clock(&mut self) {
        self.clock = Clock::Virtual {
            ticks: self.clock.ticks(),
        };
    }

    pub fn now_ticks(&self) -> u64 {
        self.clock.ticks()
    }

    pub fn node(&self, i: usize) -> Option<&EvsProcess<Payload>> {
        self.slots[i].node.as_ref()
    }

    pub fn node_mut(&mut self, i: usize) -> Option<&mut EvsProcess<Payload>> {
        self.slots[i].node.as_mut()
    }

    pub fn wal_dir(&self, i: usize) -> &PathBuf {
        &self.slots[i].wal_dir
    }

    /// The per-node `EvsEvent` histories (kept only with `keep_trace`).
    pub fn take_traces(&mut self) -> Vec<Vec<(SimTime, EvsEvent)>> {
        self.slots
            .iter_mut()
            .map(|s| std::mem::take(&mut s.trace))
            .collect()
    }

    /// Drops every engine, leaving transports and the rest in place, so
    /// the caller can see what the engines alone were holding.
    pub fn drop_nodes(&mut self) {
        for slot in &mut self.slots {
            slot.node = None;
        }
    }

    /// Submits one application message at member `i`.
    pub fn submit(&mut self, i: usize, service: evs_core::Service, payload: Payload) {
        self.dispatch(i, Sp::EngineSubmit, |node, ctx| {
            node.submit(ctx, service, payload)
        });
    }

    /// True when a sweep would find something to do: a due timer or a
    /// queued datagram. Only the in-memory medium can tell without a
    /// system call; with UDP every sweep has to poll.
    pub fn has_work(&self) -> bool {
        if self.spec.udp {
            return true;
        }
        let now = self.clock.ticks();
        self.slots
            .iter()
            .any(|s| s.node.is_some() && s.timers.iter().any(|(due, _, _)| *due <= now))
            || self.hub.lock().expect("hub lock").has_mail()
    }

    /// One pass over every live node: fire its due timers, reap and handle
    /// its inbound datagrams, hand its deliveries to `sink`. A virtual clock
    /// then advances one tick. Returns whether any node did anything.
    pub fn sweep(&mut self, sink: &mut dyn Sink) -> bool {
        let worked = span(Sp::Sweep, || {
            let mut worked = false;
            for i in 0..self.slots.len() {
                if self.slots[i].node.is_some() {
                    worked |= self.serve(i);
                }
            }
            worked |= self.collect_deliveries(sink);
            worked
        });
        count(&METERS.sweeps, 1);
        if !worked {
            count(&METERS.idle_sweeps, 1);
        }
        if let Clock::Virtual { ticks } = &mut self.clock {
            *ticks += 1;
        }
        worked
    }

    fn serve(&mut self, i: usize) -> bool {
        let mut worked = false;
        let now = self.clock.ticks();
        let slot = &mut self.slots[i];
        if slot.timers.iter().any(|(due, _, _)| *due <= now) {
            let mut due = Vec::new();
            slot.timers.retain(|t| {
                let fire = t.0 <= now;
                if fire {
                    due.push(t.2);
                }
                !fire
            });
            for kind in due {
                self.dispatch(i, Sp::EngineTimer, |node, ctx| node.on_timer(ctx, kind));
            }
            worked = true;
        }
        let mut inbox = std::mem::take(&mut self.inbox);
        inbox.clear();
        let driver = self.slots[i]
            .driver
            .as_mut()
            .expect("live node has a driver");
        // A receive error on loopback is not survivable; the epoch's
        // watchdog reports the stall it causes.
        let _ = driver.complete(None, &mut inbox);
        for (from_addr, datagram) in inbox.drain(..) {
            worked = true;
            let Some(from) = self.peers.iter().position(|a| *a == from_addr) else {
                continue;
            };
            let from = ProcessId::new(from as u32);
            let msgs: Vec<EvsMsg<Payload>> =
                match span(Sp::WireUnpack, || wire::unpack_frames(&datagram)) {
                    Ok(frames) => frames
                        .iter()
                        .filter_map(|f| span(Sp::WireDecode, || wire::decode(f)).ok())
                        .collect(),
                    Err(_) => continue,
                };
            for msg in msgs {
                let sp = match &msg {
                    EvsMsg::Ring(RingMsg::Token(_)) => {
                        count(&METERS.token_visits, 1);
                        Sp::EngineToken
                    }
                    EvsMsg::Ring(RingMsg::Data(_)) => {
                        count(&METERS.data_msgs, 1);
                        Sp::EngineData
                    }
                    EvsMsg::Ring(RingMsg::Batch(batch)) => {
                        count(&METERS.data_msgs, batch.len() as u64);
                        Sp::EngineData
                    }
                    _ => Sp::EngineCtl,
                };
                self.dispatch(i, sp, |node, ctx| node.on_message(ctx, from, msg));
            }
        }
        self.inbox = inbox;
        worked
    }

    /// Drains every node's delivery log into `sink` and (unless a
    /// verification epoch keeps them) clears the per-node event traces.
    fn collect_deliveries(&mut self, sink: &mut dyn Sink) -> bool {
        let mut any = false;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(node) = slot.node.as_mut() else {
                continue;
            };
            if !node.deliveries().is_empty() {
                any = true;
                for d in span(Sp::EngineTake, || node.take_deliveries()) {
                    sink.delivered(i, d);
                }
            }
            if !self.keep_trace {
                slot.trace.clear();
            }
        }
        any
    }

    /// Runs one engine callback on node `i` and maps the effects it asked
    /// for onto the transport and the timer list.
    fn dispatch(
        &mut self,
        i: usize,
        sp: Sp,
        f: impl FnOnce(&mut EvsProcess<Payload>, &mut Ectx<'_>),
    ) {
        let now = self.clock.ticks();
        let budget = self.params.max_datagram_bytes;
        let slot = &mut self.slots[i];
        let Some(node) = slot.node.as_mut() else {
            return;
        };
        let mut ctx = Ctx::detached(
            slot.me,
            SimTime::from_ticks(now),
            &mut slot.stable,
            &mut slot.trace,
            &mut slot.next_timer_id,
        );
        span(sp, || f(node, &mut ctx));
        let effects = ctx.take_effects();
        for effect in effects {
            match effect {
                Effect::Broadcast(msg) => {
                    self.observe(&msg);
                    let slot = &mut self.slots[i];
                    span(Sp::WireEncode, || {
                        wire::encode_into(&msg, &mut slot.scratch)
                    });
                    self.note_frame(i, &msg);
                    for to in 0..self.peers.len() {
                        self.enqueue(i, to, budget);
                    }
                }
                Effect::Unicast(to, msg) => {
                    self.observe(&msg);
                    let slot = &mut self.slots[i];
                    span(Sp::WireEncode, || {
                        wire::encode_into(&msg, &mut slot.scratch)
                    });
                    self.note_frame(i, &msg);
                    self.enqueue(i, to.as_usize(), budget);
                }
                Effect::SetTimer(id, delay, kind) => {
                    self.slots[i].timers.push((now + delay, id, kind));
                }
                Effect::CancelTimer(id) => {
                    self.slots[i].timers.retain(|(_, tid, _)| *tid != id);
                }
            }
        }
        for to in 0..self.peers.len() {
            self.queue_outbox(i, to);
        }
        let driver = self.slots[i]
            .driver
            .as_mut()
            .expect("live node has a driver");
        if driver.pending() > 0 {
            // Oversized datagrams were dropped before the push, so a send
            // error here is a transport fault; the watchdog reports it.
            let _ = driver.submit();
        }
    }

    fn observe(&mut self, msg: &EvsMsg<Payload>) {
        match msg {
            EvsMsg::Memb(MembMsg::Join { .. }) if self.watch_joins => {
                self.watch_joins = false;
                self.observed.first_join_ns = Some(trace::now_ns());
            }
            EvsMsg::Rebroadcast { .. } => count(&METERS.rebroadcasts, 1),
            _ => {}
        }
    }

    fn note_frame(&mut self, i: usize, msg: &EvsMsg<Payload>) {
        let len = self.slots[i].scratch.len() as u64;
        count(&METERS.frames, 1);
        count(&METERS.frame_bytes, len);
        if matches!(msg, EvsMsg::Exchange(_)) {
            self.observed.exchange_frame_bytes_max =
                self.observed.exchange_frame_bytes_max.max(len);
        }
    }

    /// Appends the frame in `scratch` to `to`'s datagram, queueing the full
    /// datagram first if it would outgrow the shared budget.
    fn enqueue(&mut self, i: usize, to: usize, budget: usize) {
        let slot = &self.slots[i];
        if !slot.outbox[to].is_empty() && slot.outbox[to].len() + 4 + slot.scratch.len() > budget {
            self.queue_outbox(i, to);
        }
        let slot = &mut self.slots[i];
        let (scratch, outbox) = (&slot.scratch, &mut slot.outbox[to]);
        span(Sp::WirePack, || wire::pack_into(scratch, outbox));
    }

    fn queue_outbox(&mut self, i: usize, to: usize) {
        let slot = &mut self.slots[i];
        if slot.outbox[to].is_empty() {
            return;
        }
        let datagram = slot.outbox[to].to_vec();
        slot.outbox[to].clear();
        if self.spec.udp && datagram.len() > MAX_DATAGRAM {
            // `sendmmsg` would fail the whole batch with EMSGSIZE; count
            // the frame as lost instead of dying on it.
            count(&METERS.oversize_frames, 1);
            return;
        }
        slot.driver
            .as_mut()
            .expect("live node has a driver")
            .push(self.peers[to], datagram);
    }

    /// Kills node `i` the way `SIGKILL` does: no `on_crash`, queued
    /// datagrams gone, timers gone, and the WAL cut back to its last sync.
    pub fn kill(&mut self, i: usize) -> Result<(), String> {
        let slot = &mut self.slots[i];
        slot.node = None;
        slot.driver = None;
        slot.timers.clear();
        for out in &mut slot.outbox {
            out.clear();
        }
        self.hub.lock().expect("hub lock").close(slot.addr);
        if self.spec.wal {
            discard_unsynced_tail(&slot.wal_dir, slot.unsynced.load(Relaxed))
                .map_err(|e| format!("discard WAL tail: {e}"))?;
        }
        self.watch_joins = true;
        self.observed.first_join_ns = None;
        Ok(())
    }

    /// Starts a new incarnation of node `i` over its WAL directory.
    pub fn restart(&mut self, i: usize) -> Result<(), String> {
        if self.spec.udp {
            return Err("restart is only wired for the in-memory transport".into());
        }
        let spec = self.spec;
        let slot = &mut self.slots[i];
        let storage = open_storage(spec, &slot.wal_dir, &slot.unsynced)?;
        slot.node = Some(EvsProcess::with_storage(
            slot.me,
            self.params.clone(),
            storage,
        ));
        slot.driver = Some(TimedDriver::boxed(
            Box::new(MemDriver::bind(&self.hub, slot.addr)),
            false,
            true,
        ));
        self.dispatch(i, Sp::EngineStart, |node, ctx| node.on_start(ctx));
        Ok(())
    }
}
