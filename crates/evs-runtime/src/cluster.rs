//! Thread-per-node on top of the single-threaded [`Worker`]: each member
//! runs `Worker::step` on the wall clock in its own thread, and the owner
//! reaches a node by sending it a closure.
//!
//! A worker thread parks inside its driver until its next protocol
//! deadline. A command therefore travels as a channel message *and* a
//! 4-byte [`WAKE_MAGIC`] datagram through the same medium the protocol
//! uses, so the parked worker notices it at once — the one wake path for
//! UDP and in-memory clusters alike.

use crate::fault::{Faults, FaultyDriver};
use crate::mem::MemDriver;
use crate::worker::{Ectx, ProcessTrace, Worker};
use crate::{ticks_since, MAX_PARK};
use evs_core::{EvsEvent, EvsParams, EvsProcess, Payload};
use evs_net::{LoopUdpDriver, SocketDriver};
use evs_sim::{ProcessId, SimTime};
use evs_telemetry::{Phase, Telemetry};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A 4-byte datagram that carries nothing: it exists to end a worker's
/// park so the command queued just before it runs now.
pub const WAKE_MAGIC: &[u8; 4] = b"EVSW";

/// A closure run on a node's thread, with the current tick.
type Command = Box<dyn FnOnce(&mut Worker, u64) -> io::Result<()> + Send>;

/// A live group of [`EvsProcess`]es, one OS thread each, every member's
/// driver behind a [`FaultyDriver`] sharing one [`Faults`] table.
pub struct Cluster {
    addrs: Vec<SocketAddr>,
    commands: Vec<Sender<Command>>,
    /// Sends the wake datagrams; shared by every thread that commands.
    waker: Mutex<Box<dyn SocketDriver>>,
    handles: Vec<JoinHandle<io::Result<ProcessTrace>>>,
    telemetry: Vec<Telemetry>,
    faults: Arc<Faults>,
}

impl Cluster {
    /// `n` members over the in-memory medium, with per-process telemetry
    /// attached if `telemetry`.
    pub fn in_memory(n: usize, telemetry: bool) -> Cluster {
        let hub = Arc::default();
        // Addresses on the hub only: no socket is bound.
        let bind = |i: usize| -> Box<dyn SocketDriver> {
            let addr = SocketAddr::from(([127, 0, 0, 1], 20_000 + i as u16));
            Box::new(MemDriver::bind(&hub, addr))
        };
        Cluster::spawn((0..n).map(bind).collect(), bind(n), telemetry)
            .expect("the in-memory medium cannot fail")
    }

    /// `n` members over real loopback UDP sockets (the platform's best
    /// [`evs_net::driver_for`] each), telemetry attached. Fails if a
    /// socket cannot be bound or wrapped.
    pub fn udp_loopback(n: usize) -> io::Result<Cluster> {
        let bind = || UdpSocket::bind("127.0.0.1:0");
        let drivers = (0..n)
            .map(|_| evs_net::driver_for(bind()?))
            .collect::<io::Result<_>>()?;
        Cluster::spawn(drivers, Box::new(LoopUdpDriver::new(bind()?)), true)
    }

    fn spawn(
        drivers: Vec<Box<dyn SocketDriver>>,
        waker: Box<dyn SocketDriver>,
        telemetry: bool,
    ) -> io::Result<Cluster> {
        let addrs = drivers
            .iter()
            .map(|d| d.local_addr())
            .collect::<io::Result<Vec<_>>>()?;
        let mut cluster = Cluster {
            commands: Vec::new(),
            waker: Mutex::new(waker),
            handles: Vec::new(),
            telemetry: Vec::new(),
            faults: Faults::new(addrs.len()),
            addrs,
        };
        let epoch = Instant::now();
        for (i, driver) in drivers.into_iter().enumerate() {
            let me = ProcessId::new(i as u32);
            let telemetry = if telemetry {
                Telemetry::enabled(i as u32)
            } else {
                Telemetry::disabled()
            };
            let peers = cluster.addrs.clone();
            let faults = Arc::clone(&cluster.faults);
            let driver = FaultyDriver::new(driver, me, peers.clone(), faults, telemetry.clone());
            let node = EvsProcess::new(me, EvsParams::default());
            let worker = Worker::new(me, node, Box::new(driver), peers, telemetry.clone());
            let (tx, rx) = channel();
            cluster.commands.push(tx);
            cluster.telemetry.push(telemetry);
            let thread = std::thread::spawn(move || run(worker, rx, epoch));
            cluster.handles.push(thread);
        }
        Ok(cluster)
    }

    /// Every member's address, in process order (each answers `OBS?`).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Every member's telemetry handle, in process order.
    pub fn telemetry_handles(&self) -> Vec<Telemetry> {
        self.telemetry.clone()
    }

    /// The partition and link-fault table the members receive through.
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// Queues `command` for `p`'s thread and ends its park.
    fn command(
        &self,
        p: ProcessId,
        command: impl FnOnce(&mut Worker, u64) -> io::Result<()> + Send + 'static,
    ) {
        // A worker that already stopped on an I/O error takes no more
        // commands; `shutdown` reports why.
        if self.commands[p.as_usize()].send(Box::new(command)).is_ok() {
            let mut waker = self.waker.lock().unwrap_or_else(PoisonError::into_inner);
            waker.push(self.addrs[p.as_usize()], WAKE_MAGIC.to_vec());
            let _ = waker.submit();
        }
    }

    /// Runs a closure on the node's thread (e.g. to submit a message).
    /// Skipped while the node is crashed.
    pub fn invoke(
        &self,
        p: ProcessId,
        f: impl FnOnce(&mut EvsProcess<Payload>, &mut Ectx<'_>) + Send + 'static,
    ) {
        self.command(p, |worker, now| worker.dispatch(now, Phase::Dispatch, f));
    }

    /// Synchronously inspects a node's state and trace from the caller's
    /// thread, returning the closure's result. Panics if the node's
    /// thread has stopped on an I/O error.
    pub fn inspect<R: Send + 'static>(
        &self,
        p: ProcessId,
        f: impl FnOnce(&EvsProcess<Payload>, &[(SimTime, EvsEvent)]) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = channel();
        self.command(p, move |worker, _| {
            let _ = tx.send(f(worker.node(), worker.trace()));
            Ok(())
        });
        rx.recv().expect("node thread alive")
    }

    /// Crashes a node (volatile state lost, stable storage kept).
    pub fn crash(&self, p: ProcessId) {
        self.command(p, |worker, now| worker.crash(now));
    }

    /// Kills `p` outright (`kill -9`): unlike [`Cluster::crash`] the node
    /// gets no `on_crash` callback, so only state it already journaled is
    /// there for a later [`Cluster::recover`].
    pub fn kill(&self, p: ProcessId) {
        self.command(p, |worker, _| {
            worker.kill();
            Ok(())
        });
    }

    /// Recovers a crashed or killed node under the same identifier.
    pub fn recover(&self, p: ProcessId) {
        self.command(p, |worker, now| worker.recover(now));
    }

    /// Polls `pred` (evaluated against every node) until it holds or the
    /// timeout expires. Returns whether it held.
    pub fn wait_until(
        &self,
        timeout: Duration,
        pred: impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone + 'static,
    ) -> bool {
        let all: Vec<_> = (0..self.addrs.len() as u32).map(ProcessId::new).collect();
        self.wait_until_on(&all, timeout, pred)
    }

    /// Like [`Cluster::wait_until`], restricted to the named nodes (e.g.
    /// the survivors of a crash — a crashed node's state is frozen and
    /// would never satisfy a liveness predicate).
    pub fn wait_until_on(
        &self,
        nodes: &[ProcessId],
        timeout: Duration,
        pred: impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone + 'static,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let holds = |&p: &ProcessId| {
                let pred = pred.clone();
                self.inspect(p, move |node, _| pred(node))
            };
            if nodes.iter().all(holds) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            // A settled state is typically a handful of ticks away; a
            // coarser poll would dominate short runs.
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Stops every thread and returns each node's trace, in process
    /// order. Panics if a node's thread panicked or stopped on an I/O
    /// error.
    pub fn shutdown(mut self) -> Vec<ProcessTrace> {
        // A worker exits when its command channel disconnects; the wake
        // makes it look.
        self.commands.clear();
        let waker = self.waker.get_mut().unwrap_or_else(PoisonError::into_inner);
        for addr in &self.addrs {
            waker.push(*addr, WAKE_MAGIC.to_vec());
        }
        let _ = waker.submit();
        let joined = self.handles.drain(..).map(|h| h.join());
        joined
            .map(|exit| exit.expect("node thread panicked").expect("node I/O"))
            .collect()
    }
}

/// A node's thread: commands first, then one step, forever — until the
/// command channel disconnects.
fn run(
    mut worker: Worker,
    commands: Receiver<Command>,
    epoch: Instant,
) -> io::Result<ProcessTrace> {
    let now = || ticks_since(epoch);
    worker.start(now())?;
    let mut foreign = Vec::new();
    loop {
        loop {
            match commands.try_recv() {
                Ok(command) => command(&mut worker, now())?,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return Ok(worker.into_trace()),
            }
        }
        worker.step(&now, Some(MAX_PARK), &mut foreign)?;
        // Wakes, and whatever else strayed in from a non-member address.
        foreign.clear();
    }
}
