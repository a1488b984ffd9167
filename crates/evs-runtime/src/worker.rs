//! The single-threaded worker: one [`EvsProcess`] over one
//! [`SocketDriver`], with the timer list and the outbound packing the
//! engine's effects map onto. It never reads a clock: every entry point
//! takes protocol time (in ticks) from its caller — a wall clock on a
//! thread, a restarted process's resumed clock, or a test's virtual ticks
//! — so the same loop runs live and in lock-step.
//!
//! One dispatch is, in this order: the engine callback; the trace journal
//! write, if a journal is attached; then encoding (each frame once),
//! packing (one datagram per destination) and a single `submit`. The
//! journal therefore holds every event a dispatch produced before any
//! datagram of that dispatch can leave — no peer can observe an effect of
//! an event the journal would lose to a kill.

use crate::TICK;
use bytes::BytesMut;
use evs_core::{trace_io, wire, EvsEvent, EvsMsg, EvsProcess, Payload};
use evs_net::{Completion, SocketDriver};
use evs_obs::Exposition;
use evs_order::RingMsg;
use evs_sim::{Ctx, Effect, Node, ProcessId, SimTime, StableStore, TimerId, TimerKind};
use evs_telemetry::{names, Counter, Phase, PhaseClock, Telemetry};
use std::fs::File;
use std::io::{self, Write as _};
use std::net::SocketAddr;
use std::time::Duration;

/// The context an engine callback runs in.
pub type Ectx<'a> = Ctx<'a, EvsMsg<Payload>, EvsEvent>;

/// One process's event history, as the specification checker reads it.
pub type ProcessTrace = Vec<(SimTime, EvsEvent)>;

/// One EVS group member and everything it needs to run.
pub struct Worker {
    me: ProcessId,
    node: EvsProcess<Payload>,
    driver: Box<dyn SocketDriver>,
    /// Member addresses, indexed by process (this worker's own included:
    /// a broadcast loops back through the medium).
    peers: Vec<SocketAddr>,
    stable: StableStore,
    trace: ProcessTrace,
    /// The durable trace journal and how many `trace` entries it holds.
    journal: Option<(File, usize)>,
    next_timer_id: u64,
    /// `(due tick, id, kind)`.
    timers: Vec<(u64, TimerId, TimerKind)>,
    /// False between a crash or kill and the next recover.
    alive: bool,
    telemetry: Telemetry,
    /// Chained wall-clock phase attribution: one mark per loop stage, so
    /// an `OBS?` scrape can say where this worker's time goes.
    phase: PhaseClock,
    oversized_dropped: Counter,
    backstop_fired: Counter,
    /// Advances once per `OBS?` reply and resets with the process, which
    /// is how `evs-top` spots a respawn.
    obs_seq: u64,
    /// Reused for every outgoing frame encoding.
    scratch: BytesMut,
    /// One datagram under construction per destination, reused forever.
    outbox: Vec<BytesMut>,
    completions: Vec<Completion>,
}

impl Worker {
    /// A worker for member `me` of the group at `peers`, not yet started.
    pub fn new(
        me: ProcessId,
        node: EvsProcess<Payload>,
        driver: Box<dyn SocketDriver>,
        peers: Vec<SocketAddr>,
        telemetry: Telemetry,
    ) -> Worker {
        Worker {
            me,
            node,
            driver,
            stable: StableStore::new(),
            trace: Vec::new(),
            journal: None,
            next_timer_id: 0,
            timers: Vec::new(),
            alive: true,
            phase: PhaseClock::new(&telemetry),
            oversized_dropped: telemetry.counter(names::OVERSIZED_DATAGRAMS_DROPPED),
            backstop_fired: telemetry.counter(names::PARK_BACKSTOP_FIRED),
            telemetry,
            obs_seq: 0,
            scratch: BytesMut::new(),
            outbox: vec![BytesMut::new(); peers.len()],
            peers,
            completions: Vec::new(),
        }
    }

    /// Attaches a durable trace journal: from now on every dispatch
    /// appends the events it produced to `journal` before it sends. A
    /// plain `write(2)` survives `SIGKILL` — the data is in the kernel's
    /// page cache when the call returns, and only a machine crash (outside
    /// the paper's §2 failure model) can lose it.
    pub fn attach_journal(&mut self, journal: File) {
        self.journal = Some((journal, self.trace.len()));
    }

    /// The engine.
    pub fn node(&self) -> &EvsProcess<Payload> {
        &self.node
    }

    /// The events recorded so far.
    pub fn trace(&self) -> &[(SimTime, EvsEvent)] {
        &self.trace
    }

    /// Consumes the worker, keeping its event history.
    pub fn into_trace(self) -> ProcessTrace {
        self.trace
    }

    /// The due tick of the earliest armed timer, if any.
    pub fn next_deadline(&self) -> Option<u64> {
        self.timers.iter().map(|(due, ..)| *due).min()
    }

    /// Starts the engine (`on_start`) at tick `now`.
    pub fn start(&mut self, now: u64) -> io::Result<()> {
        self.dispatch(now, Phase::Dispatch, |node, ctx| node.on_start(ctx))
    }

    /// Runs one engine callback at tick `now` and returns what it asked for.
    fn call(
        &mut self,
        now: u64,
        f: impl FnOnce(&mut EvsProcess<Payload>, &mut Ectx<'_>),
    ) -> Vec<Effect<EvsMsg<Payload>>> {
        let mut ctx = Ctx::detached_with_telemetry(
            self.me,
            SimTime::from_ticks(now),
            &mut self.stable,
            &mut self.trace,
            &mut self.next_timer_id,
            self.telemetry.clone(),
        );
        f(&mut self.node, &mut ctx);
        ctx.take_effects()
    }

    /// Runs one engine callback at tick `now` and carries out the effects
    /// it asked for, attributing the engine's own time to `phase`, the
    /// journal write to [`Phase::Wal`], encoding and packing to
    /// [`Phase::Send`] and the driver submit to [`Phase::Submit`]. A
    /// crashed process runs nothing. Fails on a failed journal write
    /// (nothing of this dispatch is sent) or driver submit.
    pub fn dispatch(
        &mut self,
        now: u64,
        phase: Phase,
        f: impl FnOnce(&mut EvsProcess<Payload>, &mut Ectx<'_>),
    ) -> io::Result<()> {
        if !self.alive {
            return Ok(());
        }
        let effects = self.call(now, f);
        self.phase.mark(phase);
        self.journal_new_events()?;
        self.phase.mark(Phase::Wal);
        for effect in effects {
            match effect {
                Effect::Broadcast(msg) => {
                    // Encode once, pack the same bytes for every peer.
                    wire::encode_into(&msg, &mut self.scratch);
                    (0..self.peers.len()).for_each(|to| self.enqueue(to));
                }
                Effect::Unicast(to, msg) => {
                    wire::encode_into(&msg, &mut self.scratch);
                    self.enqueue(to.as_usize());
                }
                Effect::SetTimer(id, delay, kind) => self.timers.push((now + delay, id, kind)),
                Effect::CancelTimer(id) => self.timers.retain(|(_, tid, _)| *tid != id),
            }
        }
        (0..self.peers.len()).for_each(|to| self.queue_outbox(to));
        self.phase.mark(Phase::Send);
        let sent = self.driver.submit().map(drop);
        self.phase.mark(Phase::Submit);
        sent
    }

    /// Appends the frame in `scratch` to `to`'s datagram, queueing the
    /// full datagram first if it would outgrow the packing budget
    /// (`EvsParams::max_datagram_bytes`, shared with broker batch sizing).
    fn enqueue(&mut self, to: usize) {
        let budget = self.node.params().max_datagram_bytes;
        if !self.outbox[to].is_empty() && self.outbox[to].len() + 4 + self.scratch.len() > budget {
            self.queue_outbox(to);
        }
        wire::pack_into(&self.scratch, &mut self.outbox[to]);
    }

    /// Moves `to`'s packed datagram onto the driver's submission queue —
    /// or drops and counts it when it is larger than the medium carries (a
    /// single frame can outgrow the packing budget, and `sendmmsg` would
    /// fail the whole batch with `EMSGSIZE`).
    fn queue_outbox(&mut self, to: usize) {
        if self.outbox[to].len() > self.driver.max_datagram() {
            self.oversized_dropped.inc();
        } else if !self.outbox[to].is_empty() {
            self.driver.push(self.peers[to], self.outbox[to].to_vec());
        }
        self.outbox[to].clear();
    }

    fn journal_new_events(&mut self) -> io::Result<()> {
        let Some((file, written)) = self.journal.as_mut() else {
            return Ok(());
        };
        let mut batch = String::new();
        for (t, ev) in &self.trace[*written..] {
            trace_io::format_event(&mut batch, *t, ev);
            batch.push('\n');
        }
        *written = self.trace.len();
        file.write_all(batch.as_bytes())
    }

    /// Sends one datagram outside the protocol (a control-plane reply).
    pub fn send_to(&mut self, to: SocketAddr, datagram: Vec<u8>) -> io::Result<()> {
        self.driver.push(to, datagram);
        self.driver.submit().map(drop)
    }

    /// One turn of the loop: fire every due timer, reap one batch of
    /// datagrams and handle them. Member datagrams are unpacked, decoded
    /// and dispatched; an `OBS?` scrape is answered in place; any other
    /// datagram from a non-member address is appended to `foreign` for
    /// the caller. Returns how many datagrams were reaped.
    ///
    /// `now` is read before each dispatch. With `max_wait` the reap parks
    /// in the driver until the earliest armed timer, at most `max_wait`;
    /// without it the reap only polls. Fails on a failed dispatch or
    /// driver receive.
    pub fn step(
        &mut self,
        now: &impl Fn() -> u64,
        max_wait: Option<Duration>,
        foreign: &mut Vec<Completion>,
    ) -> io::Result<usize> {
        // Whatever the caller did since the last step was control work.
        self.phase.mark(Phase::Control);
        // Timers fire on every turn, not only after an empty wait, so a
        // flooded worker still serves its retransmission and
        // failure-detection deadlines on time.
        let t = now();
        let due: Vec<_> = self.timers.extract_if(.., |(due, ..)| *due <= t).collect();
        for (_, _, kind) in due {
            self.dispatch(now(), Phase::Timers, |node, ctx| node.on_timer(ctx, kind))?;
        }
        let wait = max_wait.map(|cap| match self.next_deadline() {
            Some(due) => {
                let ticks = u32::try_from(due.saturating_sub(now())).unwrap_or(u32::MAX);
                TICK.saturating_mul(ticks).min(cap)
            }
            None => cap,
        });
        let mut completions = std::mem::take(&mut self.completions);
        let reaped = self.driver.complete(wait, &mut completions)?;
        if reaped == 0 {
            // The whole wait was a park with nothing to do — the intended
            // idleness of an event-driven loop. The engine keeps a
            // deadline armed while it runs, so a full-length park of a
            // live worker with none means one was missed.
            if max_wait.is_some() && self.alive && self.timers.is_empty() {
                self.backstop_fired.inc();
            }
            self.phase.mark(Phase::Park);
        } else {
            // Time blocked in a reap that yielded at least one datagram.
            self.phase.mark(Phase::Recv);
        }
        for (from_addr, datagram) in completions.drain(..) {
            self.handle_datagram(now, from_addr, datagram, foreign)?;
        }
        self.completions = completions;
        Ok(reaped)
    }

    fn handle_datagram(
        &mut self,
        now: &impl Fn() -> u64,
        from_addr: SocketAddr,
        datagram: Vec<u8>,
        foreign: &mut Vec<Completion>,
    ) -> io::Result<()> {
        let Some(from) = self.peers.iter().position(|a| *a == from_addr) else {
            if !evs_obs::is_query(&datagram) {
                foreign.push((from_addr, datagram));
                return Ok(());
            }
            let reply = self.obs_reply(from_addr);
            self.phase.mark(Phase::Control);
            return reply;
        };
        // A crashed process hears nothing; a malformed datagram is noise.
        let (true, Ok(frames)) = (self.alive, wire::unpack_frames(&datagram)) else {
            return Ok(());
        };
        let from = ProcessId::new(from as u32);
        let msgs: Vec<_> = frames.iter().filter_map(|f| wire::decode(f).ok()).collect();
        self.phase.mark(Phase::Decode);
        for msg in msgs {
            // The ring's ordering work rides the token: account it apart.
            let phase = match msg {
                EvsMsg::Ring(RingMsg::Token(_)) => Phase::Token,
                _ => Phase::Dispatch,
            };
            self.dispatch(now(), phase, |node, ctx| node.on_message(ctx, from, msg))?;
        }
        Ok(())
    }

    /// Answers one `OBS?` scrape with a fresh exposition datagram.
    fn obs_reply(&mut self, to: SocketAddr) -> io::Result<()> {
        self.obs_seq += 1;
        let o = self.node.obs();
        let members: Vec<String> = o.members.iter().map(ToString::to_string).collect();
        // A journaling worker is a member process of its own (`--child`).
        let role = if self.journal.is_some() {
            "child"
        } else {
            "daemon"
        };
        let info = [
            ("role", role.to_string()),
            ("driver", self.driver.name().to_string()),
            ("os_pid", std::process::id().to_string()),
            ("config", self.node.current_config().id.to_string()),
            ("members", members.join(" ")),
            ("settled", o.settled.to_string()),
            ("in_recovery", o.in_recovery.to_string()),
            ("aru_lag", o.aru_lag.to_string()),
            ("pending", o.pending.to_string()),
            ("deliveries", o.deliveries.to_string()),
            (names::STORE_LEN, o.store_len.to_string()),
            (names::STORE_FLOOR, o.store_floor.to_string()),
            (
                "oversized_dropped",
                self.oversized_dropped.get().to_string(),
            ),
            ("park_backstop_fired", self.backstop_fired.get().to_string()),
        ]
        .map(|(key, value)| (key.to_string(), value));
        match Exposition::from_telemetry(self.obs_seq, &self.telemetry, info) {
            Some(expo) => self.send_to(to, expo.to_text().into_bytes()),
            None => Ok(()),
        }
    }

    /// Crashes the process at tick `now`: the engine records its failure
    /// (`on_crash`, journaled like any event) but nothing it asks for is
    /// sent, and every timer is dropped. Stable storage is kept for
    /// [`Worker::recover`].
    pub fn crash(&mut self, now: u64) -> io::Result<()> {
        if self.alive {
            self.call(now, |node, ctx| node.on_crash(ctx));
            self.kill();
        }
        self.journal_new_events()
    }

    /// Kills the process outright (`kill -9`): no farewell callback, so
    /// only what the engine already journaled is there for
    /// [`Worker::recover`].
    pub fn kill(&mut self) {
        self.alive = false;
        self.timers.clear();
    }

    /// Recovers a crashed or killed process under the same identifier.
    pub fn recover(&mut self, now: u64) -> io::Result<()> {
        if self.alive {
            return Ok(());
        }
        self.alive = true;
        self.dispatch(now, Phase::Dispatch, |node, ctx| node.on_recover(ctx))
    }
}
