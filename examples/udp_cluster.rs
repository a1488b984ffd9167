//! The EVS stack over real UDP sockets, with real process-kill recovery.
//!
//! Modes:
//!
//! ```text
//! cargo run --example udp_cluster                  # in-process demo (3 threads)
//! cargo run --example udp_cluster -- --broker [clients]
//! cargo run --example udp_cluster -- --orchestrate [seed]
//! cargo run --example udp_cluster -- --child <i> --ports <p0,p1,..> --dir <D>
//! cargo run --example udp_cluster -- --serve [secs]   # scrape-able cluster for evs-top
//! cargo run --example udp_cluster -- --obs-smoke      # CI observability smoke
//! ```
//!
//! The no-argument demo is the original loopback exercise: each process
//! gets its own UDP socket, frames are serialized with `evs_core::wire`,
//! broadcast is a unicast fan-out to the peer ports, and timers run on
//! real time. At the end the collected traces — from a genuinely
//! networked execution — are verified against the paper's specifications.
//!
//! `--orchestrate` closes the last gap between the repository and the
//! paper's §2 failure model ("a processor that fails may subsequently
//! recover with its stable storage intact"): every group member is a real
//! OS process (`--child`) journaling protocol state to an on-disk
//! write-ahead log (`evs_store::FileStorage`) and its trace to a durable
//! per-process journal. Mid-traffic the orchestrator delivers `SIGKILL` —
//! no destructor, no farewell callback, nothing flushed — then respawns
//! the same command line. The reincarnated process rebuilds from the WAL
//! alone: it emits the `fail_p(c)` it never got to record, skips its
//! message-id lease so identifiers are never reused (Spec 1.4), and
//! rejoins. Afterwards the orchestrator reassembles the per-process
//! journals (dropping at most one torn final line each) and runs the full
//! conformance suite: Specifications 1.1–7.2, the primary-component
//! properties, and the §5 reduction to virtual synchrony.
//!
//! Children treat datagrams from non-member sources as control traffic
//! when they carry the `EVSC` magic (submit / inspect / shutdown); the
//! journal is written *before* any datagram of the same dispatch leaves
//! the socket, so no effect of an event can be observed remotely unless
//! the event itself survives the kill.
//!
//! The send path is allocation-light in steady state: every frame is
//! encoded once into a per-worker scratch buffer ([`wire::encode_into`])
//! and all frames one dispatch produces for the same destination are
//! packed into a single datagram ([`wire::pack_frames`] framing). The
//! datagrams themselves go through an [`evs::net::SocketDriver`] — an
//! io_uring-shaped push/submit/complete queue — so a dispatch's whole
//! fan-out costs **one** `sendmmsg(2)` on Linux (a portable
//! `send_to` loop elsewhere) and inbound bursts are reaped a batch at a
//! time with `recvmmsg(2)`.
//!
//! The worker loop is event-driven: due timers fire on every iteration,
//! and between events the worker *parks* inside
//! [`SocketDriver::complete`] until the next protocol deadline (armed by
//! the engine's deadline computation, see DESIGN.md "The deadline timer
//! wheel") or a datagram. In-process control commands interrupt the park
//! with a 4-byte `EVSW` wake datagram to the worker's own socket;
//! `EVSC`/`OBS?` datagrams wake it inherently. An idle worker burns no
//! CPU (time parks under [`Phase::Park`]); a loaded worker never sleeps
//! between messages.
//!
//! `--broker` runs the client tier live: the same three UDP daemons, plus
//! an `evs_broker::Broker` front-end on its own socket. Every client is a
//! real UDP socket speaking a two-frame protocol — `EVBS` (magic, client
//! id, op bytes) submits one op, `EVBR` (magic, client id, seq) is the
//! reply routed after the op's batch reaches agreed delivery at the
//! broker's attached daemon. The broker aggregates client ops into
//! batched multicast frames exactly as the simulator driver does, so the
//! group orders a handful of batches while hundreds of client ops
//! complete; at shutdown the networked traces are checked against the
//! full specification suite.
//!
//! Every worker — loopback daemon, `--child` OS process, broker
//! front-end — also answers the `OBS?` live-scrape protocol on the UDP
//! socket it already owns: a 4-byte query datagram from any non-member
//! address gets one [`evs::obs::Exposition`] text datagram back, carrying
//! counters, gauges, log-histogram quantiles, per-phase loop-time
//! fractions (a [`PhaseClock`] chains a mark through every stage of the
//! worker loop) and info keys (socket driver kind, configuration id,
//! ARU lag, membership, recovery state). `--serve` keeps a cluster alive
//! under light traffic so `cargo run --example evs_top` has something to
//! watch; `--obs-smoke` is the self-checking CI variant.

use bytes::BytesMut;
use evs::broker::{Broker, BrokerParams, SubmitOutcome};
use evs::core::{
    checker, trace_io, wire, Delivery, EvsEvent, EvsParams, EvsProcess, Payload, Service, Trace,
};
use evs::net::{self, Completion, SocketDriver};
use evs::obs::{self, Exposition, TopState};
use evs::sim::{Ctx, Effect, Node, ProcessId, SimTime, StableStore, TimerKind};
use evs::store::FileStorage;
use evs::telemetry::{names, Phase, PhaseClock, RunReport, Telemetry};
use std::fs;
use std::io::Write as _;
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One protocol tick worth of real time.
const TICK: Duration = Duration::from_micros(200);
const N: usize = 3;

/// Magic prefix marking orchestrator→child control datagrams. Anything
/// from an address that is not a group member and does not start with
/// this is ignored.
const CONTROL_MAGIC: &[u8; 4] = b"EVSC";

/// A 4-byte wake datagram: carries no payload, exists only to interrupt
/// a worker parked in [`SocketDriver::complete`] so it notices an
/// in-process command promptly. The event-driven analogue of the old
/// fixed 500 µs receive timeout.
const WAKE_MAGIC: &[u8; 4] = b"EVSW";

/// Upper bound on one park. The engine always arms a deadline, so this
/// is only a backstop (orphan guard, lost-wake safety) — never the
/// pacing mechanism.
const MAX_PARK: Duration = Duration::from_millis(50);

/// A child process exits on its own after this long, so an orchestrator
/// that dies mid-run cannot leak workers forever.
const CHILD_MAX_LIFETIME: Duration = Duration::from_secs(300);

/// Commands the main thread sends to a node thread (in-process demo).
enum Command {
    Submit(Service, Payload),
    Inspect(mpsc::Sender<(bool, usize, Vec<String>)>),
    /// Clones every delivered application payload (the broker front-end
    /// drains these to route client replies off agreed delivery).
    Drain(mpsc::Sender<Vec<Payload>>),
    Shutdown(mpsc::Sender<Vec<(SimTime, EvsEvent)>>),
}

/// The in-process command channel to one worker, paired with the wake
/// path: every command is followed by an `EVSW` datagram to the worker's
/// socket, so a worker parked on an event wait handles the command
/// immediately instead of at its next protocol deadline.
#[derive(Clone)]
struct CommandPort {
    tx: mpsc::Sender<Command>,
    wake: Arc<UdpSocket>,
    addr: SocketAddr,
}

impl CommandPort {
    fn send(&self, cmd: Command) -> Result<(), mpsc::SendError<Command>> {
        self.tx.send(cmd)?;
        let _ = self.wake.send_to(WAKE_MAGIC, self.addr);
        Ok(())
    }
}

struct UdpWorker {
    me: ProcessId,
    node: EvsProcess<Payload>,
    /// The batched socket edge: outbound datagrams queue via
    /// [`SocketDriver::push`] and ship in one kernel submit; inbound
    /// bursts reap in one completion batch (which doubles as the parked
    /// wait).
    driver: Box<dyn SocketDriver>,
    peers: Vec<SocketAddr>,
    /// In-process demo control plane; `None` in `--child` mode, where the
    /// same requests arrive as `EVSC` datagrams.
    commands: Option<mpsc::Receiver<Command>>,
    stable: StableStore,
    trace: Vec<(SimTime, EvsEvent)>,
    /// Durable per-process trace journal (`--child` mode): the file plus
    /// how many `trace` entries have already been written to it.
    journal: Option<(fs::File, usize)>,
    /// Where this incarnation writes its telemetry dump on shutdown.
    artifact_dir: Option<PathBuf>,
    /// Tick offset so a reincarnation's clock resumes after its
    /// predecessor's last journaled event instead of restarting at zero.
    base_ticks: u64,
    next_timer_id: u64,
    timers: Vec<(Instant, evs::sim::TimerId, TimerKind)>,
    epoch: Instant,
    telemetry: Telemetry,
    /// Chained wall-clock phase attribution: one mark per loop stage, so
    /// the `OBS?` exposition can say where this worker's time goes.
    phase: PhaseClock,
    /// Snapshot sequence number; advances once per `OBS?` reply. Resets
    /// with the process, which is how `evs-top` spots a respawn.
    obs_seq: u64,
    /// The `role` info key of this worker's scrapes.
    role: &'static str,
    /// Reused for every outgoing frame encoding.
    scratch: BytesMut,
    /// One datagram under construction per destination, reused forever.
    outbox: Vec<BytesMut>,
}

impl UdpWorker {
    fn now(&self) -> SimTime {
        SimTime::from_ticks(
            self.base_ticks + (self.epoch.elapsed().as_micros() / TICK.as_micros()) as u64,
        )
    }

    /// Appends the frame in `scratch` to `to`'s datagram, queueing the
    /// full datagram on the driver first if it would outgrow the
    /// configured budget ([`EvsParams::max_datagram_bytes`], shared with
    /// broker batch sizing).
    fn enqueue(&mut self, to: usize) {
        let budget = self.node.params().max_datagram_bytes;
        if !self.outbox[to].is_empty() && self.outbox[to].len() + 4 + self.scratch.len() > budget {
            self.queue_outbox(to);
        }
        wire::pack_into(&self.scratch, &mut self.outbox[to]);
    }

    /// Moves `to`'s packed datagram onto the driver's submission queue.
    /// No syscall happens here — the whole dispatch's fan-out ships in
    /// one [`SocketDriver::submit`] batch.
    fn queue_outbox(&mut self, to: usize) {
        if !self.outbox[to].is_empty() {
            let datagram = self.outbox[to].to_vec();
            self.outbox[to].clear();
            self.driver.push(self.peers[to], datagram);
        }
    }

    /// Writes any not-yet-journaled trace events to the durable journal.
    /// Plain `write(2)` is enough to survive `SIGKILL`: the data is in the
    /// kernel page cache the moment the call returns, and only a machine
    /// crash (out of scope for the §2 model reproduced here) can lose it.
    fn journal_new_events(&mut self) {
        let Some((file, written)) = self.journal.as_mut() else {
            return;
        };
        if self.trace.len() == *written {
            return;
        }
        let mut batch = String::new();
        for (t, ev) in &self.trace[*written..] {
            trace_io::format_event(&mut batch, *t, ev);
            batch.push('\n');
        }
        file.write_all(batch.as_bytes()).expect("journal write");
        *written = self.trace.len();
    }

    fn dispatch(
        &mut self,
        f: impl FnOnce(&mut EvsProcess<Payload>, &mut Ctx<'_, evs::core::EvsMsg<Payload>, EvsEvent>),
    ) {
        self.dispatch_as(Phase::Dispatch, f)
    }

    /// Runs one engine callback, attributing the engine's own time to
    /// `phase`, the journal write to [`Phase::Wal`] and effect
    /// encoding + datagram output to [`Phase::Send`].
    fn dispatch_as(
        &mut self,
        phase: Phase,
        f: impl FnOnce(&mut EvsProcess<Payload>, &mut Ctx<'_, evs::core::EvsMsg<Payload>, EvsEvent>),
    ) {
        let now = self.now();
        let mut ctx = Ctx::detached_with_telemetry(
            self.me,
            now,
            &mut self.stable,
            &mut self.trace,
            &mut self.next_timer_id,
            self.telemetry.clone(),
        );
        f(&mut self.node, &mut ctx);
        let effects = ctx.take_effects();
        self.phase.mark(phase);
        // Write-ahead ordering: the journal must hold every event this
        // dispatch produced before any datagram it produced can leave.
        self.journal_new_events();
        self.phase.mark(Phase::Wal);
        for effect in effects {
            match effect {
                Effect::Broadcast(msg) => {
                    // Encode once, pack the same bytes for every peer.
                    let mut scratch = std::mem::take(&mut self.scratch);
                    wire::encode_into(&msg, &mut scratch);
                    self.scratch = scratch;
                    for to in 0..self.peers.len() {
                        self.enqueue(to);
                    }
                }
                Effect::Unicast(to, msg) => {
                    let mut scratch = std::mem::take(&mut self.scratch);
                    wire::encode_into(&msg, &mut scratch);
                    self.scratch = scratch;
                    self.enqueue(to.as_usize());
                }
                Effect::SetTimer(id, delay, kind) => {
                    self.timers
                        .push((Instant::now() + TICK * delay as u32, id, kind));
                }
                Effect::CancelTimer(id) => {
                    self.timers.retain(|(_, tid, _)| *tid != id);
                }
            }
        }
        // Queue everything this dispatch produced — one datagram per
        // peer — then ship the whole fan-out as one kernel batch.
        for to in 0..self.peers.len() {
            self.queue_outbox(to);
        }
        self.phase.mark(Phase::Send);
        if self.driver.pending() > 0 {
            self.driver.submit().expect("socket submit");
        }
        self.phase.mark(Phase::Submit);
    }

    /// Answers one `OBS?` scrape with a fresh exposition datagram.
    fn obs_reply(&mut self, to: SocketAddr) {
        self.obs_seq += 1;
        let o = self.node.obs();
        let members = o
            .members
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(" ");
        let info = [
            ("role".to_string(), self.role.to_string()),
            ("driver".to_string(), self.driver.name().to_string()),
            ("os_pid".to_string(), std::process::id().to_string()),
            (
                "config".to_string(),
                self.node.current_config().id.to_string(),
            ),
            ("members".to_string(), members),
            ("settled".to_string(), o.settled.to_string()),
            ("in_recovery".to_string(), o.in_recovery.to_string()),
            ("aru_lag".to_string(), o.aru_lag.to_string()),
            ("pending".to_string(), o.pending.to_string()),
            ("deliveries".to_string(), o.deliveries.to_string()),
        ];
        if let Some(expo) = Exposition::from_telemetry(self.obs_seq, &self.telemetry, info) {
            self.driver.push(to, expo.to_text().into_bytes());
            let _ = self.driver.submit();
        }
    }

    /// Handles one `EVSC` control datagram. Returns `true` on shutdown.
    fn handle_control(&mut self, body: &[u8], from: SocketAddr) -> bool {
        match body.first() {
            Some(b'S') if body.len() >= 2 => {
                let service = match body[1] {
                    0 => Service::Causal,
                    1 => Service::Agreed,
                    _ => Service::Safe,
                };
                let payload = Payload::from(&body[2..]);
                self.dispatch(|node, ctx| node.submit(ctx, service, payload));
            }
            Some(b'I') => {
                let settled = self.node.is_settled();
                let members = self.node.current_config().members.len();
                let delivered = self.node.deliveries().len() as u32;
                let mut reply = Vec::with_capacity(11);
                reply.extend_from_slice(CONTROL_MAGIC);
                reply.push(b'R');
                reply.push(settled as u8);
                reply.push(members as u8);
                reply.extend_from_slice(&delivered.to_le_bytes());
                self.driver.push(from, reply);
                let _ = self.driver.submit();
            }
            Some(b'Q') => {
                if let Some(dir) = self.artifact_dir.clone() {
                    let dumps = evs::inspect::collect_dumps(std::slice::from_ref(&self.telemetry));
                    let _ = evs::inspect::write_dumps(&dir, &dumps);
                }
                let mut reply = Vec::with_capacity(5);
                reply.extend_from_slice(CONTROL_MAGIC);
                reply.push(b'D');
                self.driver.push(from, reply);
                let _ = self.driver.submit();
                return true;
            }
            _ => {}
        }
        false
    }

    /// Handles one received datagram. Returns `true` on shutdown.
    fn handle_datagram(&mut self, from_addr: SocketAddr, datagram: &[u8]) -> bool {
        let from = self
            .peers
            .iter()
            .position(|a| *a == from_addr)
            .map(|i| ProcessId::new(i as u32));
        if let Some(from) = from {
            if let Ok(frames) = wire::unpack_frames(datagram) {
                let msgs: Vec<_> = frames.iter().filter_map(|f| wire::decode(f).ok()).collect();
                self.phase.mark(Phase::Decode);
                for msg in msgs {
                    let phase = if <EvsProcess<Payload> as Node>::is_token(&msg) {
                        Phase::Token
                    } else {
                        Phase::Dispatch
                    };
                    self.dispatch_as(phase, |node, ctx| node.on_message(ctx, from, msg));
                }
            }
        } else if obs::is_query(datagram) {
            self.obs_reply(from_addr);
            self.phase.mark(Phase::Control);
        } else if datagram.len() >= 4 && &datagram[..4] == CONTROL_MAGIC {
            let shutdown = self.handle_control(&datagram[4..], from_addr);
            self.phase.mark(Phase::Control);
            if shutdown {
                return true;
            }
        } else if datagram == WAKE_MAGIC {
            // Pure wake: the sender only wanted to interrupt the park so
            // the command poll at the top of the loop runs now.
            self.phase.mark(Phase::Control);
        }
        false
    }

    fn run(mut self) {
        let born = Instant::now();
        self.dispatch(|node, ctx| node.on_start(ctx));
        let mut completions: Vec<Completion> = Vec::with_capacity(net::RECV_BATCH);
        loop {
            if self.journal.is_some() && born.elapsed() > CHILD_MAX_LIFETIME {
                return; // orphan guard: the orchestrator is long gone
            }
            // Serve commands (in-process demo mode).
            if let Some(commands) = &self.commands {
                match commands.try_recv() {
                    Ok(Command::Submit(service, payload)) => {
                        self.dispatch(|node, ctx| node.submit(ctx, service, payload));
                    }
                    Ok(Command::Inspect(reply)) => {
                        let settled = self.node.is_settled();
                        let members = self.node.current_config().members.len();
                        let delivered: Vec<String> = self
                            .node
                            .deliveries()
                            .iter()
                            .filter_map(|d| d.payload())
                            .map(|p| String::from_utf8_lossy(p).into_owned())
                            .collect();
                        let _ = reply.send((settled, members, delivered));
                        self.phase.mark(Phase::Control);
                    }
                    Ok(Command::Drain(reply)) => {
                        let payloads: Vec<Payload> = self
                            .node
                            .deliveries()
                            .iter()
                            .filter_map(|d| match d {
                                Delivery::Message { payload, .. } => Some(payload.clone()),
                                _ => None,
                            })
                            .collect();
                        let _ = reply.send(payloads);
                        self.phase.mark(Phase::Control);
                    }
                    Ok(Command::Shutdown(reply)) => {
                        let _ = reply.send(std::mem::take(&mut self.trace));
                        return;
                    }
                    Err(mpsc::TryRecvError::Empty) => {}
                    Err(mpsc::TryRecvError::Disconnected) => return,
                }
            }
            // Fire every due timer — on every iteration, not only after
            // an empty wait, so a flooded worker still serves its
            // retransmission and failure-detection deadlines on time.
            let now = Instant::now();
            let due: Vec<_> = {
                let (ready, pending): (Vec<_>, Vec<_>) =
                    self.timers.drain(..).partition(|(at, _, _)| *at <= now);
                self.timers = pending;
                ready
            };
            if !due.is_empty() {
                for (_, _, kind) in due {
                    self.dispatch_as(Phase::Timers, |node, ctx| node.on_timer(ctx, kind));
                }
                self.phase.mark(Phase::Timers);
            }
            // Park until the earliest armed deadline or the next
            // datagram batch, whichever comes first. The engine always
            // keeps a deadline armed, so MAX_PARK is only a backstop.
            let wait = self
                .timers
                .iter()
                .map(|(at, _, _)| *at)
                .min()
                .map(|at| at.saturating_duration_since(Instant::now()))
                .unwrap_or(MAX_PARK)
                .min(MAX_PARK);
            completions.clear();
            let reaped = self
                .driver
                .complete(Some(wait), &mut completions)
                .unwrap_or_else(|e| panic!("socket error: {e}"));
            if reaped == 0 {
                // The whole blocked wait was a park with nothing to do —
                // the intended idleness of an event-driven loop.
                self.phase.mark(Phase::Park);
                continue;
            }
            // Time blocked in a reap that yielded at least one datagram.
            self.phase.mark(Phase::Recv);
            for (from_addr, datagram) in completions.drain(..) {
                if self.handle_datagram(from_addr, &datagram) {
                    return;
                }
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None => demo(),
        Some("--broker") => {
            let clients = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(48);
            broker_demo(clients);
        }
        Some("--orchestrate") => {
            let seed = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(1);
            orchestrate(seed);
        }
        Some("--child") => child(&args),
        Some("--serve") => {
            let secs = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(60);
            serve(secs);
        }
        Some("--obs-smoke") => obs_smoke(),
        Some(other) => {
            eprintln!(
                "unknown mode {other:?}; use no args, --broker [clients], \
                 --orchestrate [seed], --child, --serve [secs], or --obs-smoke"
            );
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// --child: one real OS process running one EVS member with a durable WAL
// ---------------------------------------------------------------------------

fn arg_value<'a>(args: &'a [String], flag: &str) -> &'a str {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .unwrap_or_else(|| panic!("missing {flag} <value>"))
}

fn child(args: &[String]) {
    let index: usize = arg_value(args, "--child").parse().expect("child index");
    let ports: Vec<u16> = arg_value(args, "--ports")
        .split(',')
        .map(|p| p.parse().expect("port"))
        .collect();
    let dir = PathBuf::from(arg_value(args, "--dir"));
    let me = ProcessId::new(index as u32);

    // The orchestrator reserved this port moments ago; a tiny retry loop
    // absorbs the window where the reservation socket is still closing.
    let socket = {
        let addr = format!("127.0.0.1:{}", ports[index]);
        let mut attempt = 0;
        loop {
            match UdpSocket::bind(&addr) {
                Ok(s) => break s,
                Err(e) if attempt < 50 => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20));
                    let _ = e;
                }
                Err(e) => panic!("bind {addr}: {e}"),
            }
        }
    };
    let peers: Vec<SocketAddr> = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}").parse().unwrap())
        .collect();

    // Durable state: the WAL directory and the trace journal are both
    // keyed by process id, so a reincarnation finds its predecessor's.
    let storage = FileStorage::open(dir.join(format!("wal-p{index}"))).expect("open WAL");
    let journal_path = dir.join(format!("trace-p{index}.txt"));
    let base_ticks = last_journaled_tick(&journal_path).map_or(0, |t| t + 1);
    let journal = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&journal_path)
        .expect("open trace journal");

    let telemetry = Telemetry::enabled(index as u32);
    UdpWorker {
        me,
        node: EvsProcess::with_storage(me, EvsParams::default(), Box::new(storage)),
        driver: net::driver_for(socket).expect("socket driver"),
        peers,
        commands: None,
        stable: StableStore::new(),
        trace: Vec::new(),
        journal: Some((journal, 0)),
        artifact_dir: Some(dir),
        base_ticks,
        next_timer_id: 0,
        timers: Vec::new(),
        epoch: Instant::now(),
        phase: PhaseClock::new(&telemetry),
        telemetry,
        obs_seq: 0,
        role: "child",
        scratch: BytesMut::with_capacity(1024),
        outbox: (0..ports.len())
            .map(|_| BytesMut::with_capacity(2048))
            .collect(),
    }
    .run()
}

/// The tick of the last parseable line in a trace journal, so a
/// reincarnation's clock can resume after it.
fn last_journaled_tick(path: &Path) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .rev()
        .find_map(|l| trace_io::parse_event(l.trim(), 0).ok())
        .map(|(t, _)| t.ticks())
}

// ---------------------------------------------------------------------------
// --orchestrate: spawn children, kill -9 one mid-traffic, respawn, verify
// ---------------------------------------------------------------------------

struct ControlPlane {
    socket: UdpSocket,
    ports: Vec<u16>,
}

impl ControlPlane {
    fn send(&self, child: usize, body: &[u8]) {
        let mut pkt = Vec::with_capacity(4 + body.len());
        pkt.extend_from_slice(CONTROL_MAGIC);
        pkt.extend_from_slice(body);
        let addr = format!("127.0.0.1:{}", self.ports[child]);
        let _ = self.socket.send_to(&pkt, addr);
    }

    fn submit(&self, child: usize, payload: &[u8]) {
        let mut body = vec![b'S', 2]; // service byte 2 = safe
        body.extend_from_slice(payload);
        self.send(child, &body);
    }

    /// One inspect round-trip: `(settled, members, delivered)`.
    fn inspect(&self, child: usize) -> Option<(bool, usize, u32)> {
        self.send(child, b"I");
        let mut buf = [0u8; 64];
        let deadline = Instant::now() + Duration::from_millis(200);
        while Instant::now() < deadline {
            match self.socket.recv_from(&mut buf) {
                Ok((len, _)) if len >= 11 && &buf[..4] == CONTROL_MAGIC && buf[4] == b'R' => {
                    let delivered = u32::from_le_bytes(buf[7..11].try_into().unwrap());
                    return Some((buf[5] != 0, buf[6] as usize, delivered));
                }
                _ => {}
            }
        }
        None
    }

    /// Polls until `cond` holds over the inspected children.
    fn wait_for(
        &self,
        children: &[usize],
        what: &str,
        cond: impl Fn(&[(bool, usize, u32)]) -> bool,
    ) -> Vec<(bool, usize, u32)> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let states: Vec<_> = children.iter().filter_map(|&i| self.inspect(i)).collect();
            if states.len() == children.len() && cond(&states) {
                return states;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}: {states:?}"
            );
            std::thread::sleep(Duration::from_millis(30));
        }
    }
}

/// Scrapes every endpoint into `top`; `None` entries did not answer.
fn scrape_cluster(
    top: &mut TopState,
    epoch: Instant,
    addrs: &[SocketAddr],
) -> Vec<Option<Exposition>> {
    addrs
        .iter()
        .map(|a| match obs::scrape(*a, Duration::from_millis(500)) {
            Ok(expo) => {
                top.record(
                    &a.to_string(),
                    epoch.elapsed().as_micros() as u64,
                    expo.clone(),
                );
                Some(expo)
            }
            Err(_) => {
                top.record_failure(&a.to_string());
                None
            }
        })
        .collect()
}

fn spawn_child(index: usize, ports: &[u16], dir: &Path) -> std::process::Child {
    let csv = ports
        .iter()
        .map(u16::to_string)
        .collect::<Vec<_>>()
        .join(",");
    std::process::Command::new(std::env::current_exe().expect("current exe"))
        .args([
            "--child",
            &index.to_string(),
            "--ports",
            &csv,
            "--dir",
            &dir.display().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .spawn()
        .expect("spawn child")
}

fn orchestrate(seed: u64) {
    println!("== real process-kill recovery over UDP (seed {seed}) ==\n");
    let dir = PathBuf::from("chaos-artifacts").join(format!("udp-kill-{seed}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create artifact dir");

    // Reserve one fixed port per child (hold all reservations at once so
    // they are distinct, then release them for the children to rebind).
    let reservations: Vec<UdpSocket> = (0..N)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    let ports: Vec<u16> = reservations
        .iter()
        .map(|s| s.local_addr().unwrap().port())
        .collect();
    drop(reservations);

    let ctrl = ControlPlane {
        socket: UdpSocket::bind("127.0.0.1:0").expect("bind control socket"),
        ports: ports.clone(),
    };
    ctrl.socket
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("set timeout");

    let mut children: Vec<std::process::Child> =
        (0..N).map(|i| spawn_child(i, &ports, &dir)).collect();
    println!("-- spawned {N} worker processes on ports {ports:?}");

    let all: Vec<usize> = (0..N).collect();
    ctrl.wait_for(&all, "group formation", |s| {
        s.iter()
            .all(|(settled, members, _)| *settled && *members == N)
    });
    println!("-- group formed: all {N} OS processes in one configuration");

    // The children double as OBS? scrape endpoints on their member
    // sockets; record them for evs-top and scrape throughout the run.
    let obs_addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}").parse().unwrap())
        .collect();
    obs::serve::write_endpoints(&dir.join("obs-endpoints.txt"), &obs_addrs)
        .expect("write endpoints");
    let top_epoch = Instant::now();
    let mut top = TopState::new();
    let scraped = scrape_cluster(&mut top, top_epoch, &obs_addrs);
    assert!(
        scraped.iter().all(Option::is_some),
        "every member must answer OBS? after formation"
    );
    println!("-- all {N} OS processes answered a live OBS? scrape");

    // Phase 1: traffic while everyone is up.
    for k in 0..3 {
        ctrl.submit(0, format!("pre-kill-{k}").as_bytes());
    }
    ctrl.wait_for(&all, "pre-kill delivery", |s| {
        s.iter().all(|(_, _, delivered)| *delivered >= 3)
    });
    println!("-- 3 safe messages delivered by every process");
    scrape_cluster(&mut top, top_epoch, &obs_addrs);
    print!("\n{}", top.render(top_epoch.elapsed().as_micros() as u64));

    // Phase 2: SIGKILL one member mid-run. No callback, no flush — the
    // only thing the victim leaves behind is its stable storage.
    let victim = (seed as usize) % N;
    let submitter = (victim + 1) % N;
    children[victim].kill().expect("kill -9");
    children[victim].wait().expect("reap victim");
    println!("-- delivered SIGKILL to process {victim}");

    let survivors: Vec<usize> = (0..N).filter(|i| *i != victim).collect();
    ctrl.wait_for(&survivors, "post-kill reconfiguration", |s| {
        s.iter()
            .all(|(settled, members, _)| *settled && *members == N - 1)
    });
    println!("-- survivors reconfigured to a {}-member group", N - 1);

    for k in 0..2 {
        ctrl.submit(submitter, format!("mid-kill-{k}").as_bytes());
    }
    ctrl.wait_for(&survivors, "mid-kill delivery", |s| {
        s.iter().all(|(_, _, delivered)| *delivered >= 5)
    });
    println!("-- traffic continued without the killed member");
    let scraped = scrape_cluster(&mut top, top_epoch, &obs_addrs);
    assert!(
        scraped[victim].is_none(),
        "a SIGKILLed process must stop answering scrapes"
    );
    println!("-- evs-top sees the kill: process {victim} no longer answers OBS?");

    // Phase 3: respawn the same command line. The child finds its WAL,
    // emits the fail event its predecessor never recorded, skips the
    // message-id lease, and rejoins the group.
    children[victim] = spawn_child(victim, &ports, &dir);
    ctrl.wait_for(&all, "post-restart reformation", |s| {
        s.iter()
            .all(|(settled, members, _)| *settled && *members == N)
    });
    println!("-- process {victim} recovered from its write-ahead log and rejoined");
    let scraped = scrape_cluster(&mut top, top_epoch, &obs_addrs);
    let revived = scraped[victim]
        .as_ref()
        .expect("the reincarnation answers scrapes");
    assert!(
        revived
            .counters
            .get(names::STORAGE_RECOVERIES)
            .copied()
            .unwrap_or(0)
            >= 1,
        "the reincarnation's scrape must show its WAL recovery"
    );
    let victim_endpoint = obs_addrs[victim].to_string();
    assert!(
        top.node(&victim_endpoint).unwrap().incarnations >= 2,
        "evs-top must detect the respawn as a new incarnation"
    );
    print!("\n{}", top.render(top_epoch.elapsed().as_micros() as u64));
    println!(
        "-- evs-top tracked the respawn: incarnation count stepped, WAL recovery in the scrape"
    );

    let before: Vec<u32> = all
        .iter()
        .map(|&i| ctrl.inspect(i).map_or(0, |(_, _, d)| d))
        .collect();
    for k in 0..2 {
        ctrl.submit(submitter, format!("post-restart-{k}").as_bytes());
    }
    ctrl.wait_for(&all, "post-restart delivery", |s| {
        s.iter()
            .zip(&before)
            .all(|((_, _, delivered), b)| *delivered >= b + 2)
    });
    println!("-- post-restart traffic delivered by every process, including the reincarnation");

    // Shutdown: each child writes its telemetry dump and exits.
    for &i in &all {
        ctrl.send(i, b"Q");
    }
    for mut c in children {
        let _ = c.wait();
    }

    // Reassemble the run from the durable journals alone — exactly what
    // an operator doing a post-mortem would have — and check everything.
    let trace = load_journals(&dir, N);
    println!(
        "\n-- reassembled {} events from {} on-disk journals; checking Specifications 1.1–7.2, \
         primary component, and the §5 VS reduction…",
        trace.len(),
        N
    );
    if let Some(failure) = evs::chaos::conformance(&trace, &[], N) {
        eprintln!(
            "CONFORMANCE FAILURE: {:?}\n{}",
            failure.specs, failure.details
        );
        std::process::exit(1);
    }
    println!("   all specifications hold across a real kill -9 and WAL recovery ✓");

    // The dumps are enrichment, not evidence: the victim's first
    // incarnation never got to write one (that is the point of SIGKILL),
    // but the reincarnation's dump must show the storage recovery and no
    // silent-state-loss anomaly.
    let reloaded = evs::inspect::load_dumps(&dir).expect("reload dumps");
    let report = evs::inspect::InspectReport::analyze(&reloaded);
    assert!(
        !report
            .anomalies
            .iter()
            .any(|a| a.kind == "silent_state_loss"),
        "recovery replayed zero records: {:?}",
        report.anomalies
    );
    println!(
        "-- post-mortem dumps: {} process(es), {} anomaly flag(s)",
        reloaded.len(),
        report.anomalies.len()
    );
    println!("-- artifacts under {}", dir.display());
    println!("\nOK seed={seed} victim={victim}");
}

/// Reads every per-process trace journal back into one [`Trace`]. A
/// journal's final line may be torn by `SIGKILL`; it is dropped. Any
/// earlier malformed line is a real bug and panics.
fn load_journals(dir: &Path, n: usize) -> Trace {
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let path = dir.join(format!("trace-p{i}.txt"));
        let text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let lines: Vec<&str> = text.lines().collect();
        let mut log = Vec::with_capacity(lines.len());
        for (k, line) in lines.iter().enumerate() {
            match trace_io::parse_event(line.trim(), k + 1) {
                Ok(entry) => log.push(entry),
                Err(e) if k + 1 == lines.len() => {
                    eprintln!("   (journal {i}: dropped torn final line: {e})");
                }
                Err(e) => panic!("journal {i} corrupt mid-file: {e}"),
            }
        }
        events.push(log);
    }
    Trace::new(events)
}

// ---------------------------------------------------------------------------
// no-argument demo: the original in-process loopback exercise
// ---------------------------------------------------------------------------

/// Everything the in-process modes need to drive and observe a spawned
/// cluster: per-worker command ports (channel + wake datagram), join
/// handles, telemetry handles, and the socket addresses (which double as
/// `OBS?` scrape endpoints).
type LoopbackCluster = (
    Vec<CommandPort>,
    Vec<std::thread::JoinHandle<()>>,
    Vec<Telemetry>,
    Vec<SocketAddr>,
);

/// Binds one loopback socket per process and spawns the worker threads of
/// the in-process modes (demo, `--broker`, `--serve`, `--obs-smoke`).
fn spawn_loopback_workers() -> LoopbackCluster {
    let sockets: Vec<UdpSocket> = (0..N)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<SocketAddr> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    println!("-- sockets: {addrs:?}");

    // One shared socket delivers every EVSW wake datagram; the workers
    // recognise wakes by content, not source.
    let wake = Arc::new(UdpSocket::bind("127.0.0.1:0").expect("bind wake socket"));
    let mut command_txs = Vec::new();
    let mut handles = Vec::new();
    let mut telemetry_handles = Vec::new();
    for (i, socket) in sockets.into_iter().enumerate() {
        let me = ProcessId::new(i as u32);
        let (tx, rx) = mpsc::channel();
        command_txs.push(CommandPort {
            tx,
            wake: Arc::clone(&wake),
            addr: addrs[i],
        });
        let peers = addrs.clone();
        let epoch = Instant::now();
        let telemetry = Telemetry::enabled(i as u32);
        telemetry_handles.push(telemetry.clone());
        handles.push(std::thread::spawn(move || {
            UdpWorker {
                me,
                node: EvsProcess::new(me, EvsParams::default()),
                driver: net::driver_for(socket).expect("socket driver"),
                peers,
                commands: Some(rx),
                stable: StableStore::new(),
                trace: Vec::new(),
                journal: None,
                artifact_dir: None,
                base_ticks: 0,
                next_timer_id: 0,
                timers: Vec::new(),
                epoch,
                phase: PhaseClock::new(&telemetry),
                telemetry,
                obs_seq: 0,
                role: "daemon",
                scratch: BytesMut::with_capacity(1024),
                outbox: (0..N).map(|_| BytesMut::with_capacity(2048)).collect(),
            }
            .run()
        }));
    }
    (command_txs, handles, telemetry_handles, addrs)
}

/// Cleanly shuts down the loopback workers, returning their traces.
fn shutdown_loopback_workers(
    command_txs: &[CommandPort],
    handles: Vec<std::thread::JoinHandle<()>>,
) -> Vec<Vec<(SimTime, EvsEvent)>> {
    let mut traces = Vec::new();
    for tx in command_txs {
        let (rtx, rrx) = mpsc::channel();
        tx.send(Command::Shutdown(rtx)).unwrap();
        traces.push(rrx.recv().unwrap());
    }
    for h in handles {
        h.join().unwrap();
    }
    traces
}

/// One inspect round-trip with worker `i`.
fn inspect_worker(txs: &[CommandPort], i: usize) -> (bool, usize, Vec<String>) {
    let (rtx, rrx) = mpsc::channel();
    txs[i].send(Command::Inspect(rtx)).unwrap();
    rrx.recv().unwrap()
}

/// Polls until every worker settles into one N-member configuration.
fn wait_until_formed(txs: &[CommandPort]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let states: Vec<(bool, usize, Vec<String>)> =
            (0..N).map(|i| inspect_worker(txs, i)).collect();
        if states
            .iter()
            .all(|(settled, members, _)| *settled && *members == N)
        {
            println!("-- group formed over UDP: all {N} processes in one configuration");
            return;
        }
        assert!(
            Instant::now() < deadline,
            "group failed to form: {states:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn demo() {
    println!("== extended virtual synchrony over UDP (loopback) ==\n");
    let (command_txs, handles, telemetry_handles, _addrs) = spawn_loopback_workers();
    let inspect = inspect_worker;
    wait_until_formed(&command_txs);

    // Exchange a safe message.
    command_txs[0]
        .send(Command::Submit(
            Service::Safe,
            Payload::from(b"over the wire"),
        ))
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let states: Vec<(bool, usize, Vec<String>)> =
            (0..N).map(|i| inspect(&command_txs, i)).collect();
        if states
            .iter()
            .all(|(_, _, delivered)| delivered.iter().any(|d| d == "over the wire"))
        {
            println!("-- safe message delivered by every process");
            break;
        }
        assert!(Instant::now() < deadline, "delivery stalled: {states:?}");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Shut down and verify the networked execution against the model.
    let trace = Trace::new(shutdown_loopback_workers(&command_txs, handles));
    println!(
        "-- collected {} events from the UDP run; checking Specifications 1.1–7.2…",
        trace.len()
    );
    checker::assert_evs_with_telemetry(&trace, &telemetry_handles);
    println!("   all extended virtual synchrony specifications hold over UDP ✓");

    // The same metrics the simulator runs report, here measured over a
    // genuinely networked execution.
    println!("\n-- telemetry:");
    print!("{}", RunReport::collect(&telemetry_handles).to_text());

    // Cross-process correlation of the same run: merged causal timeline,
    // per-message and per-configuration lifecycle spans, anomalies.
    println!("\n-- lifecycle spans (timeline tail):");
    print!(
        "{}",
        evs::inspect::InspectReport::from_handles(&telemetry_handles).to_text(Some(20))
    );

    // On-disk post-mortem: one JSON dump file per process, re-ingested
    // from disk. In a real multi-OS-process deployment no analyzer can
    // hold live telemetry handles for every participant, so this file
    // round-trip is the workflow that survives process exit. The dumps
    // land next to the chaos repro artifacts so every post-mortem input
    // lives under one directory.
    let dir = std::path::Path::new("chaos-artifacts").join("udp-postmortem");
    let dumps = evs::inspect::collect_dumps(&telemetry_handles);
    let paths = evs::inspect::write_dumps(&dir, &dumps).expect("write post-mortem dumps");
    println!(
        "\n-- post-mortem dumps ({} file(s) under {}):",
        paths.len(),
        dir.display()
    );
    let reloaded = evs::inspect::load_dumps(&dir).expect("reload post-mortem dumps");
    let report = evs::inspect::InspectReport::analyze(&reloaded);
    assert_eq!(report.timeline.processes, N);
    println!(
        "   reloaded from disk: {} process(es), {} event(s), {} anomaly(ies) — \
         analysis works after every process is gone",
        report.timeline.processes,
        report.timeline.entries.len(),
        report.anomalies.len()
    );
}

// ---------------------------------------------------------------------------
// --serve / --obs-smoke: the live observability plane
// ---------------------------------------------------------------------------

/// `--serve [secs]`: keeps a scrape-able cluster alive under light
/// traffic so `cargo run --example evs_top` has something to watch.
fn serve(secs: u64) {
    println!("== scrape-able cluster for evs-top ({secs}s) ==\n");
    let (command_txs, handles, _telemetry, addrs) = spawn_loopback_workers();
    wait_until_formed(&command_txs);
    let path = Path::new("chaos-artifacts").join("obs-endpoints.txt");
    obs::serve::write_endpoints(&path, &addrs).expect("write endpoints");
    println!(
        "-- endpoints in {}; run `cargo run --example evs_top` in another shell",
        path.display()
    );
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut k = 0u64;
    while Instant::now() < deadline {
        let service = if k.is_multiple_of(4) {
            Service::Safe
        } else {
            Service::Agreed
        };
        let _ = command_txs[(k as usize) % N].send(Command::Submit(
            service,
            Payload::from(format!("serve-{k}").as_bytes()),
        ));
        k += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    shutdown_loopback_workers(&command_txs, handles);
    println!("-- served {k} submissions; bye");
}

/// `--obs-smoke`: the CI gate for the live observability plane. Boots a
/// 3-node cluster, scrapes every node twice mid-traffic and asserts the
/// exposition invariants — advancing snapshot sequences, monotone
/// counters, phase fractions summing to ~1e6 ppm and covering ≥95% of
/// loop wall-clock, exact text round-trips, the kernel-batched socket
/// driver where the platform has one — then renders one evs-top frame
/// from the recorded scrapes.
fn obs_smoke() {
    println!("== obs smoke: live scrapes of a 3-node UDP cluster ==\n");
    let (command_txs, handles, _telemetry, addrs) = spawn_loopback_workers();
    wait_until_formed(&command_txs);
    let submit = |k: u64| {
        let _ = command_txs[(k as usize) % N].send(Command::Submit(
            Service::Agreed,
            Payload::from(format!("obs-{k}").as_bytes()),
        ));
    };
    for k in 0..16 {
        submit(k);
    }
    std::thread::sleep(Duration::from_millis(200));

    let epoch = Instant::now();
    let mut top = TopState::new();
    let scrape_all = |top: &mut TopState| -> Vec<Exposition> {
        addrs
            .iter()
            .map(|a| {
                let expo = obs::scrape(*a, Duration::from_secs(2)).expect("scrape");
                top.record(
                    &a.to_string(),
                    epoch.elapsed().as_micros() as u64,
                    expo.clone(),
                );
                expo
            })
            .collect()
    };
    let first = scrape_all(&mut top);
    for k in 16..32 {
        submit(k);
    }
    std::thread::sleep(Duration::from_millis(300));
    let second = scrape_all(&mut top);

    for (i, (e1, e2)) in first.iter().zip(&second).enumerate() {
        assert!(
            e2.seq > e1.seq,
            "node {i}: seq must advance ({} -> {})",
            e1.seq,
            e2.seq
        );
        for (name, v1) in &e1.counters {
            let v2 = e2.counters.get(name).copied().unwrap_or(0);
            assert!(v2 >= *v1, "node {i}: counter {name} regressed {v1} -> {v2}");
        }
        let rotations = e2
            .counters
            .get(names::TOKEN_ROTATIONS)
            .copied()
            .unwrap_or(0);
        assert!(rotations > 0, "node {i}: the ring must be rotating");
        let ppm: u64 = e2.phases.values().map(|p| p.ppm).sum();
        assert!(
            ppm > 1_000_000 - Phase::COUNT as u64 && ppm <= 1_000_000,
            "node {i}: phase ppm sum {ppm}"
        );
        let cov = e2.coverage().expect("phase coverage");
        assert!(
            (0.95..=1.05).contains(&cov),
            "node {i}: phase coverage {cov}"
        );
        let parsed = Exposition::parse(&e2.to_text()).expect("round-trip");
        assert_eq!(&parsed, e2, "node {i}: exposition must round-trip");
        assert_eq!(e2.info["role"], "daemon");
        // The loopback sockets are IPv4: where the kernel-batched path
        // exists it must be the one in use, never a silent downgrade.
        let driver = if net::kernel_batched() {
            "batch"
        } else {
            "loop"
        };
        assert_eq!(e2.info["driver"], driver, "node {i}: socket driver");
    }
    let latencies: u64 = second
        .iter()
        .filter_map(|e| e.hists.get(names::DELIVERY_LATENCY_AGREED))
        .map(|h| h.count)
        .sum();
    assert!(latencies > 0, "scrapes must carry delivery latency");
    println!("-- {N} nodes scraped twice: seqs advance, counters monotone, phase");
    println!("   fractions sum to ~1 and cover ≥95% of loop time, text round-trips,");
    println!(
        "   socket driver is `{}`, delivery latency exported",
        second[0].info["driver"]
    );

    let frame = top.render(epoch.elapsed().as_micros() as u64);
    print!("\n{frame}");
    assert_eq!(top.live_nodes(), N);
    for a in &addrs {
        let endpoint = a.to_string();
        assert_eq!(top.node(&endpoint).unwrap().incarnations, 1);
        assert!(frame.contains(&endpoint), "frame must list {endpoint}");
    }

    shutdown_loopback_workers(&command_txs, handles);
    println!("\nOK obs-smoke");
}

// ---------------------------------------------------------------------------
// --broker: real UDP clients served through an evs-broker front-end
// ---------------------------------------------------------------------------

/// Magic prefix of a client→broker submit datagram:
/// `EVBS · client id (8 LE) · op bytes`.
const CLIENT_SUBMIT_MAGIC: &[u8; 4] = b"EVBS";
/// Magic prefix of a broker→client reply datagram:
/// `EVBR · client id (8 LE) · seq (8 LE)`.
const CLIENT_REPLY_MAGIC: &[u8; 4] = b"EVBR";

struct BrokerStats {
    ops: u64,
    replies: u64,
    batches: u64,
}

/// The broker front-end thread: client submits in over UDP, batched
/// multicast frames out to daemon 0, replies back over UDP off agreed
/// delivery. Exits once `stop` fires and nothing is left in flight.
///
/// The socket edge is the same [`SocketDriver`] the daemons use: client
/// bursts reap in `recvmmsg` batches and a delivery's whole reply
/// fan-out (potentially hundreds of `EVBR` datagrams) ships as one
/// kernel submit.
fn run_broker_front_end(
    socket: UdpSocket,
    daemon: CommandPort,
    stop: mpsc::Receiver<()>,
    stats_tx: mpsc::Sender<BrokerStats>,
    telemetry: Telemetry,
) {
    let epoch = Instant::now();
    let now = |epoch: &Instant| (epoch.elapsed().as_micros() / TICK.as_micros()) as u64;
    let mut driver = net::driver_for(socket).expect("broker socket driver");
    let mut broker = Broker::with_telemetry(
        0,
        ProcessId::new(0),
        BrokerParams::default(),
        telemetry.clone(),
    );
    let mut obs_seq = 0u64;
    // Reply routing needs a return address per client; the last submit's
    // source is it (clients keep one socket for their whole session).
    let mut return_addrs: std::collections::HashMap<u64, SocketAddr> =
        std::collections::HashMap::new();
    let mut stats = BrokerStats {
        ops: 0,
        replies: 0,
        batches: 0,
    };
    let mut cursor = 0usize;
    let mut completions: Vec<Completion> = Vec::with_capacity(net::RECV_BATCH);
    let mut stopping = false;
    loop {
        if !stopping && stop.try_recv().is_ok() {
            stopping = true;
        }
        // Drain the client socket greedily, a completion batch at a time
        // (bounded so flushing and reply routing stay responsive under a
        // sustained burst). Only the first reap of an iteration blocks.
        let mut drained = 0usize;
        loop {
            completions.clear();
            let timeout = if drained == 0 {
                Some(Duration::from_micros(500))
            } else {
                None
            };
            let reaped = driver
                .complete(timeout, &mut completions)
                .unwrap_or_else(|e| panic!("broker socket error: {e}"));
            for (from, pkt) in completions.drain(..) {
                if pkt.len() >= 12 && pkt[..4] == *CLIENT_SUBMIT_MAGIC {
                    let client = u64::from_le_bytes(pkt[4..12].try_into().unwrap());
                    return_addrs.insert(client, from);
                    match broker.submit(now(&epoch), client, Payload::from(&pkt[12..])) {
                        SubmitOutcome::Accepted { .. } => stats.ops += 1,
                        // A real deployment would nack so the client
                        // retries; this demo sizes its load under the
                        // windows, so backpressure here is a bug the
                        // final op accounting catches.
                        SubmitOutcome::Backpressure => {}
                    }
                } else if obs::is_query(&pkt) {
                    // The broker answers live scrapes on its client
                    // socket: evs-top polls it exactly like a daemon.
                    obs_seq += 1;
                    let info = [
                        ("role".to_string(), "broker".to_string()),
                        ("os_pid".to_string(), std::process::id().to_string()),
                    ];
                    if let Some(expo) = Exposition::from_telemetry(obs_seq, &telemetry, info) {
                        driver.push(from, expo.to_text().into_bytes());
                    }
                }
            }
            drained += reaped;
            if reaped == 0 || drained >= 1024 {
                break;
            }
        }
        // Batched frames into the ring (force the tail out when stopping).
        let t = now(&epoch);
        let frames = if stopping {
            broker.force_flush(t)
        } else {
            broker.poll_flush(t)
        };
        for frame in frames {
            stats.batches += 1;
            if daemon
                .send(Command::Submit(Service::Agreed, frame))
                .is_err()
            {
                break;
            }
        }
        // Replies off agreed delivery at the attached daemon.
        let (rtx, rrx) = mpsc::channel();
        if daemon.send(Command::Drain(rtx)).is_err() {
            break;
        }
        let Ok(delivered) = rrx.recv() else { break };
        let t = now(&epoch);
        for frame in &delivered[cursor..] {
            for reply in broker.on_delivered(t, frame) {
                stats.replies += 1;
                if let Some(addr) = return_addrs.get(&reply.client) {
                    let mut pkt = Vec::with_capacity(20);
                    pkt.extend_from_slice(CLIENT_REPLY_MAGIC);
                    pkt.extend_from_slice(&reply.client.to_le_bytes());
                    pkt.extend_from_slice(&reply.seq.to_le_bytes());
                    driver.push(*addr, pkt);
                }
            }
        }
        cursor = delivered.len();
        // One kernel submit ships every scrape reply and client reply
        // this iteration produced.
        if driver.pending() > 0 {
            driver.submit().expect("broker socket submit");
        }
        if stopping && broker.inflight() == 0 && broker.pending() == 0 {
            break;
        }
    }
    let _ = stats_tx.send(stats);
}

fn broker_demo(clients: usize) {
    const OPS_PER_CLIENT: usize = 4;
    println!("== client tier over UDP: {clients} clients through one broker ==\n");
    let (command_txs, handles, telemetry_handles, _addrs) = spawn_loopback_workers();
    wait_until_formed(&command_txs);

    let broker_socket = UdpSocket::bind("127.0.0.1:0").expect("bind broker socket");
    let broker_addr = broker_socket.local_addr().unwrap();
    let (stop_tx, stop_rx) = mpsc::channel();
    let (stats_tx, stats_rx) = mpsc::channel();
    let daemon0 = command_txs[0].clone();
    let broker_telemetry = Telemetry::enabled(N as u32);
    let broker_thread = std::thread::spawn(move || {
        run_broker_front_end(broker_socket, daemon0, stop_rx, stats_tx, broker_telemetry)
    });
    println!("-- broker front-end listening on {broker_addr}, attached to daemon 0");

    // Every client is its own UDP socket; all ops go out before any reply
    // is read, so the broker sees genuinely concurrent sessions.
    let client_sockets: Vec<UdpSocket> = (0..clients)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind client"))
        .collect();
    for s in &client_sockets {
        s.set_read_timeout(Some(Duration::from_millis(10)))
            .expect("set timeout");
    }
    for (c, s) in client_sockets.iter().enumerate() {
        for k in 0..OPS_PER_CLIENT {
            let mut pkt = Vec::with_capacity(32);
            pkt.extend_from_slice(CLIENT_SUBMIT_MAGIC);
            pkt.extend_from_slice(&(c as u64).to_le_bytes());
            pkt.extend_from_slice(format!("op-{c}-{k}").as_bytes());
            s.send_to(&pkt, broker_addr).expect("client submit");
        }
    }
    let total_ops = clients * OPS_PER_CLIENT;
    println!("-- {clients} clients submitted {total_ops} ops");

    // Collect every reply; each client waits on its own socket.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut buf = [0u8; 64];
    let mut acked = vec![0usize; clients];
    loop {
        let done = acked.iter().filter(|&&a| a >= OPS_PER_CLIENT).count();
        if done == clients {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "client replies stalled: {done}/{clients} clients fully acked"
        );
        for (c, s) in client_sockets.iter().enumerate() {
            while acked[c] < OPS_PER_CLIENT {
                match s.recv_from(&mut buf) {
                    Ok((len, _)) if len >= 20 && &buf[..4] == CLIENT_REPLY_MAGIC => {
                        let client = u64::from_le_bytes(buf[4..12].try_into().unwrap());
                        assert_eq!(client, c as u64, "reply routed to the wrong client");
                        acked[c] += 1;
                    }
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
    }
    println!("-- every client observed all {OPS_PER_CLIENT} replies");

    // The broker is still serving: scrape it live, like evs-top would.
    let expo = obs::scrape(broker_addr, Duration::from_secs(2)).expect("scrape broker");
    assert_eq!(expo.info["role"], "broker");
    assert_eq!(
        expo.counters
            .get(names::BROKER_OPS_SUBMITTED)
            .copied()
            .unwrap_or(0) as usize,
        total_ops,
        "the broker's scrape must account for every op"
    );
    assert!(
        expo.gauges.contains_key(names::BROKER_INFLIGHT_OPS)
            && expo.gauges.contains_key(names::BROKER_PENDING_OPS),
        "the broker's scrape must expose its queue-depth gauges"
    );
    println!("-- the broker answered a live OBS? scrape: {total_ops} ops, queue gauges exposed");

    stop_tx.send(()).expect("stop broker");
    let stats = stats_rx.recv().expect("broker stats");
    broker_thread.join().expect("join broker");
    assert_eq!(stats.ops as usize, total_ops, "every op accepted");
    assert_eq!(stats.replies, stats.ops, "every op replied exactly once");
    assert!(
        stats.batches < stats.ops,
        "batching must amortize: {} batches for {} ops",
        stats.batches,
        stats.ops
    );
    println!(
        "-- {} ops entered the ring as {} batched multicast(s)",
        stats.ops, stats.batches
    );

    // Shut down the daemons and verify the networked execution — with the
    // broker tier in the loop — against the full specification suite.
    let trace = Trace::new(shutdown_loopback_workers(&command_txs, handles));
    println!(
        "-- collected {} events from the UDP run; checking Specifications 1.1–7.2…",
        trace.len()
    );
    checker::assert_evs_with_telemetry(&trace, &telemetry_handles);
    println!("   all specifications hold with the broker tier in the loop ✓");
}
