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
//! networked execution — are verified against the paper's specifications,
//! and the post-mortem (one `trace_io` document holding the trace and
//! every process's flight dump) is written, reloaded and analyzed again
//! from disk, to the same report.
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
//! properties, and the §5 reduction to virtual synchrony. The same
//! journals, where each member appended its flight dump at shutdown,
//! feed the post-mortem's lifecycle spans.
//!
//! Every mode runs the one live worker loop, [`evs::runtime::Worker`]
//! (DESIGN.md "The live worker loop"): the in-process modes as an
//! [`evs::runtime::Cluster`] — a thread per member over real loopback
//! sockets — and a `--child` by stepping its own `Worker`, trace journal
//! attached, on the main thread. What is left in this file is argument
//! parsing, the `EVSC` control plane children answer (submit / shutdown,
//! from any non-member address; the orchestrator reads a child's state
//! from its `OBS?` scrape), the `kill -9` orchestrator,
//! the broker's client socket and the smoke assertions.
//!
//! `--broker` runs the client tier live: the same three UDP daemons, plus
//! an `evs_broker::Broker` front-end on its own socket. Every client is a
//! real UDP socket speaking the client frames of `evs_broker::proto` —
//! `EVBS` (client id, op bytes) submits one op, `EVBR` (client id, seq)
//! is the reply routed after the op's batch reaches agreed delivery at
//! the broker's attached daemon. The broker aggregates client ops into
//! batched multicast frames exactly as the simulator driver does, so the
//! group orders a handful of batches while hundreds of client ops
//! complete; at shutdown the networked traces are checked against the
//! full specification suite.
//!
//! Every worker — loopback daemon, `--child` OS process, broker
//! front-end — also answers the `OBS?` live-scrape protocol on the UDP
//! socket it already owns: a 4-byte query datagram from any non-member
//! address gets one [`evs::telemetry::Exposition`] text datagram back, carrying
//! counters, gauges, log-histogram quantiles, per-phase loop-time
//! fractions and info keys (socket driver kind, configuration id, ARU
//! lag, membership, recovery state, oversized datagrams dropped, park
//! backstops fired). `--serve` keeps a cluster alive under light traffic
//! so `cargo run --example evs_top` has something to watch; `--obs-smoke`
//! is the self-checking CI variant.

use evs::broker::{proto, Broker, BrokerParams, SubmitOutcome};
use evs::core::trace_io::{self, Dumps, Line};
use evs::core::{EvsParams, EvsProcess, Payload, Service, Trace};
use evs::net::{self, Completion};
use evs::obs::{self, TopState};
use evs::runtime::{self, Cluster, Worker, MAX_PARK};
use evs::sim::ProcessId;
use evs::store::FileStorage;
use evs::telemetry::{names, Exposition, Phase, Telemetry};
use std::fs;
use std::io::Write as _;
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const N: usize = 3;

/// Magic prefix marking orchestrator→child control datagrams. Anything
/// from an address that is not a group member and does not start with
/// this is ignored.
const CONTROL_MAGIC: &[u8; 4] = b"EVSC";

/// A child process exits on its own after this long, so an orchestrator
/// that dies mid-run cannot leak workers forever.
const CHILD_MAX_LIFETIME: Duration = Duration::from_secs(300);

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
    let (journal, base_ticks) = Worker::open_journal(&journal_path).expect("open trace journal");

    let telemetry = Telemetry::enabled(index as u32);
    let mut worker = Worker::new(
        me,
        EvsProcess::with_storage(me, EvsParams::default(), Box::new(storage)),
        net::driver_for(socket).expect("socket driver"),
        peers,
        telemetry.clone(),
    );
    worker.attach_journal(journal);

    // The reincarnation's clock resumes after its predecessor's last
    // journaled event instead of restarting at zero.
    let born = Instant::now();
    let now = || base_ticks + runtime::ticks_since(born);
    worker.start(now()).expect("start");
    let mut foreign: Vec<Completion> = Vec::new();
    // Orphan guard: the orchestrator is long gone after the lifetime cap.
    while born.elapsed() <= CHILD_MAX_LIFETIME {
        worker
            .step(&now, Some(MAX_PARK), &mut foreign)
            .unwrap_or_else(|e| panic!("worker I/O: {e}"));
        for (_, datagram) in foreign.drain(..) {
            if let Some(body) = datagram.strip_prefix(CONTROL_MAGIC) {
                if handle_control(&mut worker, now(), body) {
                    // This incarnation's flight dump, for the post-mortem:
                    // appended to its journal, after every event.
                    let mut lines = String::new();
                    for rec in telemetry.flight_dump() {
                        trace_io::format_recorded(&mut lines, &rec);
                        lines.push('\n');
                    }
                    fs::OpenOptions::new()
                        .append(true)
                        .open(&journal_path)
                        .and_then(|mut f| f.write_all(lines.as_bytes()))
                        .expect("append the flight dump to the journal");
                    return;
                }
            }
        }
    }
}

/// Handles one `EVSC` control datagram. Returns `true` on shutdown.
fn handle_control(worker: &mut Worker, now: u64, body: &[u8]) -> bool {
    match body.first() {
        Some(b'S') if body.len() >= 2 => {
            let service = match body[1] {
                0 => Service::Causal,
                1 => Service::Agreed,
                _ => Service::Safe,
            };
            let payload = Payload::from(&body[2..]);
            worker
                .dispatch(now, Phase::Dispatch, |node, ctx| {
                    node.submit(ctx, service, payload)
                })
                .unwrap_or_else(|e| panic!("worker I/O: {e}"));
        }
        Some(b'Q') => return true,
        _ => {}
    }
    false
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

    /// One `OBS?` scrape of a child: `(settled, members, delivered)`, read
    /// from the info keys every worker's scrape carries.
    fn inspect(&self, child: usize) -> Option<(bool, usize, usize)> {
        let addr = SocketAddr::from(([127, 0, 0, 1], self.ports[child]));
        let expo = obs::scrape(addr, Duration::from_millis(200)).ok()?;
        let info = |key: &str| expo.info.get(key).map(String::as_str);
        Some((
            info("settled")? == "true",
            info("members")?.split_whitespace().count(),
            info("deliveries")?.parse().ok()?,
        ))
    }

    /// Polls until `cond` holds over the inspected children.
    fn wait_for(
        &self,
        children: &[usize],
        what: &str,
        cond: impl Fn(&[(bool, usize, usize)]) -> bool,
    ) -> Vec<(bool, usize, usize)> {
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

    let before: Vec<usize> = all
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

    // Shutdown: each child appends its flight dump to its journal and exits.
    for &i in &all {
        ctrl.send(i, b"Q");
    }
    for mut c in children {
        let _ = c.wait();
    }

    // Reassemble the run from the durable journals alone — exactly what
    // an operator doing a post-mortem would have — and check everything.
    let (trace, dumps) = load_journals(&dir, N);
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
    let recovered = dumps.iter().any(|(pid, dump)| {
        *pid as usize == victim
            && dump
                .iter()
                .any(|rec| rec.event.name() == names::STORAGE_RECOVERIES)
    });
    assert!(
        recovered,
        "the reincarnation's dump shows no storage recovery"
    );
    let report = evs::inspect::InspectReport::analyze(&trace, &dumps);
    assert!(
        !report
            .anomalies
            .iter()
            .any(|a| a.kind == "silent_state_loss"),
        "recovery replayed zero records: {:?}",
        report.anomalies
    );
    // The message spans come from the journals: stamped and delivered.
    let complete = report
        .messages
        .iter()
        .filter(|m| m.stamped_at.is_some() && m.deliveries > 0)
        .count();
    assert!(complete > 0, "no stamped-and-delivered message span");
    println!(
        "-- post-mortem: {} dump(s), {} message span(s) stamped and delivered, \
         {} anomaly flag(s)",
        dumps.len(),
        complete,
        report.anomalies.len()
    );
    println!("-- artifacts under {}", dir.display());
    println!("\nOK seed={seed} victim={victim}");
}

/// Reads every per-process journal back into one [`Trace`] and the
/// flight dumps the members appended at shutdown. A journal's final line
/// may be torn by `SIGKILL`; it is dropped. Any earlier malformed line is
/// a real bug and panics.
fn load_journals(dir: &Path, n: usize) -> (Trace, Dumps) {
    let mut events = Vec::with_capacity(n);
    let mut dumps = Vec::new();
    for i in 0..n {
        let path = dir.join(format!("trace-p{i}.txt"));
        let text =
            fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let lines: Vec<&str> = text.lines().collect();
        let (mut log, mut dump) = (Vec::with_capacity(lines.len()), Vec::new());
        for (k, line) in lines.iter().enumerate() {
            match trace_io::parse_line(line, k + 1) {
                Ok(Line::Event(t, ev)) => log.push((t, ev)),
                Ok(Line::Recorded(rec)) => dump.push(rec),
                Err(e) if k + 1 == lines.len() => {
                    eprintln!("   (journal {i}: dropped torn final line: {e})");
                }
                Err(e) => panic!("journal {i} corrupt mid-file: {e}"),
            }
        }
        events.push(log);
        if !dump.is_empty() {
            dumps.push((i as u32, dump));
        }
    }
    (Trace::new(events), dumps)
}

// ---------------------------------------------------------------------------
// no-argument demo: the original in-process loopback exercise
// ---------------------------------------------------------------------------

/// Binds one loopback socket per process, spawns the cluster of the
/// in-process modes (demo, `--broker`, `--serve`, `--obs-smoke`) and waits
/// until every member settles into one N-member configuration.
fn form_loopback_cluster() -> Cluster {
    let cluster = Cluster::udp_loopback(N).expect("bind loopback sockets");
    println!("-- sockets: {:?}", cluster.addrs());
    assert!(
        cluster.wait_until(Duration::from_secs(30), |node| {
            node.is_settled() && node.current_config().members.len() == N
        }),
        "group failed to form"
    );
    println!("-- group formed over UDP: all {N} processes in one configuration");
    cluster
}

/// Submits `payload` at member `at`.
fn submit(cluster: &Cluster, at: usize, service: Service, payload: Payload) {
    cluster.invoke(ProcessId::new(at as u32), move |node, ctx| {
        node.submit(ctx, service, payload)
    });
}

/// Shuts the cluster down and verifies the networked execution against
/// the model. Returns the trace and the members' telemetry handles.
fn shut_down_and_check(cluster: Cluster) -> (Trace, Vec<Telemetry>) {
    let telemetry_handles = cluster.telemetry_handles();
    let trace = Trace::new(cluster.shutdown());
    println!(
        "-- collected {} events from the UDP run; checking Specifications 1.1–7.2…",
        trace.len()
    );
    evs::inspect::assert_evs_with_telemetry(&trace, &telemetry_handles);
    (trace, telemetry_handles)
}

fn demo() {
    println!("== extended virtual synchrony over UDP (loopback) ==\n");
    let cluster = form_loopback_cluster();

    // Exchange a safe message.
    submit(&cluster, 0, Service::Safe, Payload::from(b"over the wire"));
    assert!(
        cluster.wait_until(Duration::from_secs(30), |node| {
            let mut payloads = node.deliveries().iter().filter_map(|d| d.payload());
            payloads.any(|p| p.as_slice() == b"over the wire")
        }),
        "delivery stalled"
    );
    println!("-- safe message delivered by every process");

    let (trace, telemetry_handles) = shut_down_and_check(cluster);
    println!("   all extended virtual synchrony specifications hold over UDP ✓");

    // The same metrics the simulator runs report, here measured over a
    // genuinely networked execution.
    println!("\n-- telemetry (one exposition per process):");
    for expo in telemetry_handles.iter().filter_map(Telemetry::snapshot) {
        print!("{}", expo.to_text());
    }

    // Cross-process correlation of the same run: merged causal timeline,
    // per-message and per-configuration lifecycle spans, anomalies.
    let dumps = evs::inspect::collect_dumps(&telemetry_handles);
    let report = evs::inspect::InspectReport::analyze(&trace, &dumps);
    println!("\n-- lifecycle spans (timeline tail):");
    print!("{}", report.to_text(Some(20)));

    // On-disk post-mortem: the trace and every flight dump in one
    // document, re-ingested from disk. In a real multi-OS-process
    // deployment no analyzer can hold live telemetry handles for every
    // participant, so this file round-trip is the workflow that survives
    // process exit. The file lands next to the chaos repro artifacts so
    // every post-mortem input lives under one directory.
    let dir = Path::new("chaos-artifacts").join("udp-postmortem");
    fs::create_dir_all(&dir).expect("create post-mortem dir");
    let path = dir.join("postmortem.txt");
    fs::write(&path, trace_io::format_postmortem(&trace, &dumps)).expect("write post-mortem");
    let text = fs::read_to_string(&path).expect("reload post-mortem");
    let (trace, dumps) = trace_io::parse_postmortem(&text).expect("post-mortem parses");
    let reloaded = evs::inspect::InspectReport::analyze(&trace, &dumps);
    assert_eq!(reloaded, report, "the post-mortem lost something");
    println!(
        "\n-- post-mortem {}: reloaded from disk, {} process(es), {} event(s), \
         {} message span(s), {} anomaly(ies), the same report — analysis works \
         after every process is gone",
        path.display(),
        reloaded.timeline.processes,
        reloaded.timeline.entries.len(),
        reloaded.messages.len(),
        reloaded.anomalies.len()
    );
}

// ---------------------------------------------------------------------------
// --serve / --obs-smoke: the live observability plane
// ---------------------------------------------------------------------------

/// `--serve [secs]`: keeps a scrape-able cluster alive under light
/// traffic so `cargo run --example evs_top` has something to watch.
fn serve(secs: u64) {
    println!("== scrape-able cluster for evs-top ({secs}s) ==\n");
    let cluster = form_loopback_cluster();
    let path = Path::new("chaos-artifacts").join("obs-endpoints.txt");
    obs::serve::write_endpoints(&path, cluster.addrs()).expect("write endpoints");
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
        let payload = Payload::from(format!("serve-{k}").as_bytes());
        submit(&cluster, (k as usize) % N, service, payload);
        k += 1;
        std::thread::sleep(Duration::from_millis(5));
    }
    cluster.shutdown();
    println!("-- served {k} submissions; bye");
}

/// Messages `--obs-smoke` sends: several times what the ring may retain.
const SMOKE_MESSAGES: u64 = 128;

/// `--obs-smoke`: the CI gate for the live observability plane. Boots a
/// 3-node cluster, scrapes every node twice mid-traffic and asserts the
/// exposition invariants — advancing snapshot sequences, monotone
/// counters, phase fractions summing to ~1e6 ppm and covering ≥95% of
/// loop wall-clock, exact text round-trips, the kernel-batched socket
/// driver where the platform has one, zero park backstops and zero
/// oversized datagrams, a ring store that stayed a window — then renders
/// one evs-top frame from the recorded scrapes.
fn obs_smoke() {
    println!("== obs smoke: live scrapes of a 3-node UDP cluster ==\n");
    let cluster = form_loopback_cluster();
    let addrs = cluster.addrs();
    let submit = |k: u64| {
        let payload = Payload::from(format!("obs-{k}").as_bytes());
        submit(&cluster, (k as usize) % N, Service::Agreed, payload);
    };
    for k in 0..16 {
        submit(k);
    }
    std::thread::sleep(Duration::from_millis(200));

    let epoch = Instant::now();
    let mut top = TopState::new();
    let scrape_all = |top: &mut TopState| -> Vec<Exposition> {
        let scraped = scrape_cluster(top, epoch, addrs);
        scraped.into_iter().map(|e| e.expect("scrape")).collect()
    };
    let first = scrape_all(&mut top);
    for k in 16..SMOKE_MESSAGES {
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
        // Nor any other silent degradation: no deadline the engine failed
        // to arm, no frame too large for the socket, no frame refused.
        assert_eq!(e2.info["park_backstop_fired"], "0", "node {i}");
        assert_eq!(e2.info["oversized_dropped"], "0", "node {i}");
        assert_eq!(e2.info["frames_refused"], "0", "node {i}");
        // The ring store is a window above the safe line, not a history:
        // of everything sent, at most what one rotation stamps is retained.
        let store_len: usize = e2.info[names::STORE_LEN].parse().expect("store_len");
        let window = N * EvsParams::default().max_per_visit;
        assert!(
            store_len <= window && window < SMOKE_MESSAGES as usize,
            "node {i}: {store_len} of {SMOKE_MESSAGES} messages retained (floor {})",
            e2.info[names::STORE_FLOOR]
        );
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
        "   socket driver is `{}`, no park backstop fired, no oversized datagram or refused frame,",
        second[0].info["driver"]
    );
    println!("   ring store pruned to a window, delivery latency exported");

    let frame = top.render(epoch.elapsed().as_micros() as u64);
    print!("\n{frame}");
    assert_eq!(top.live_nodes(), N);
    for a in addrs {
        let endpoint = a.to_string();
        assert_eq!(top.node(&endpoint).unwrap().incarnations, 1);
        assert!(frame.contains(&endpoint), "frame must list {endpoint}");
    }

    cluster.shutdown();
    println!("\nOK obs-smoke");
}

// ---------------------------------------------------------------------------
// --broker: real UDP clients served through an evs-broker front-end
// ---------------------------------------------------------------------------

struct BrokerStats {
    ops: u64,
    replies: u64,
    batches: u64,
}

/// The broker front-end thread: client submits in over UDP, batched
/// multicast frames out to daemon 0, replies back over UDP off agreed
/// delivery. Exits once `stop` fires (or its sender is gone) and nothing
/// is left in flight, or five seconds after that.
///
/// The socket edge is the same `SocketDriver` the daemons use: client
/// bursts reap in `recvmmsg` batches and a delivery's whole reply
/// fan-out (potentially hundreds of `EVBR` datagrams) ships as one
/// kernel submit.
fn run_broker_front_end(
    socket: UdpSocket,
    cluster: &Cluster,
    stop: mpsc::Receiver<()>,
    telemetry: Telemetry,
) -> BrokerStats {
    let daemon = ProcessId::new(0);
    let epoch = Instant::now();
    let now = || runtime::ticks_since(epoch);
    let mut driver = net::driver_for(socket).expect("broker socket driver");
    let mut broker = Broker::with_telemetry(0, daemon, BrokerParams::default(), telemetry.clone());
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
    let mut stopping: Option<Instant> = None;
    loop {
        if stopping.is_none() && !matches!(stop.try_recv(), Err(mpsc::TryRecvError::Empty)) {
            stopping = Some(Instant::now());
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
                if let Some((client, op)) = proto::decode_submit(&pkt) {
                    return_addrs.insert(client, from);
                    match broker.submit(now(), client, op) {
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
        let t = now();
        let frames = if stopping.is_some() {
            broker.force_flush(t)
        } else {
            broker.poll_flush(t)
        };
        for frame in frames {
            stats.batches += 1;
            submit(cluster, 0, Service::Agreed, frame);
        }
        // Replies off agreed delivery at the attached daemon.
        let (delivered, seen) = cluster.inspect(daemon, move |node, _| {
            let all = node.deliveries();
            let fresh = all[cursor..].iter().filter_map(|d| d.payload().cloned());
            (fresh.collect::<Vec<Payload>>(), all.len())
        });
        let t = now();
        for frame in &delivered {
            for reply in broker.on_delivered(t, frame) {
                stats.replies += 1;
                if let Some(addr) = return_addrs.get(&reply.client) {
                    driver.push(*addr, proto::encode_reply(reply.client, reply.seq));
                }
            }
        }
        cursor = seen;
        // One kernel submit ships every scrape reply and client reply
        // this iteration produced.
        if driver.pending() > 0 {
            driver.submit().expect("broker socket submit");
        }
        if let Some(since) = stopping {
            if broker.inflight() + broker.pending() == 0 || since.elapsed().as_secs() >= 5 {
                break;
            }
        }
    }
    stats
}

fn broker_demo(clients: usize) {
    println!("== client tier over UDP: {clients} clients through one broker ==\n");
    let cluster = form_loopback_cluster();

    let broker_socket = UdpSocket::bind("127.0.0.1:0").expect("bind broker socket");
    let broker_addr = broker_socket.local_addr().unwrap();
    let broker_telemetry = Telemetry::enabled(N as u32);
    let stats = std::thread::scope(|scope| {
        // Created in here so that a client-side panic drops the sender
        // and stops the broker thread: the run fails instead of hanging.
        let (stop_tx, stop_rx) = mpsc::channel();
        let broker_thread = scope
            .spawn(|| run_broker_front_end(broker_socket, &cluster, stop_rx, broker_telemetry));
        println!("-- broker front-end listening on {broker_addr}, attached to daemon 0");
        run_clients(clients, broker_addr);
        stop_tx.send(()).expect("stop broker");
        broker_thread.join().expect("join broker")
    });
    let total_ops = clients * OPS_PER_CLIENT;
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

    shut_down_and_check(cluster);
    println!("   all specifications hold with the broker tier in the loop ✓");
}

const OPS_PER_CLIENT: usize = 4;

/// Clients whose ops go out in one burst: the broker's socket buffer holds
/// a few hundred small datagrams, and nothing retries a dropped submit.
const CLIENT_BURST: usize = 16;

/// The client side of `--broker`: every client submits its ops over its
/// own socket and collects every reply, then the broker is scraped live.
/// Panics if a reply takes over five seconds.
fn run_clients(clients: usize, broker_addr: SocketAddr) {
    // Every client is its own UDP socket; a burst's ops all go out before
    // any of its replies is read, so the broker sees concurrent sessions.
    let client_sockets: Vec<UdpSocket> = (0..clients)
        .map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0").expect("bind client");
            s.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set timeout");
            s
        })
        .collect();
    let mut buf = [0u8; 64];
    for first in (0..clients).step_by(CLIENT_BURST) {
        let burst = first..clients.min(first + CLIENT_BURST);
        for c in burst.clone() {
            for k in 0..OPS_PER_CLIENT {
                let pkt = proto::encode_submit(c as u64, format!("op-{c}-{k}").as_bytes());
                client_sockets[c]
                    .send_to(&pkt, broker_addr)
                    .expect("client submit");
            }
        }
        for c in burst {
            for _ in 0..OPS_PER_CLIENT {
                let Ok((len, _)) = client_sockets[c].recv_from(&mut buf) else {
                    panic!("client replies stalled: {c}/{clients} clients fully acked");
                };
                let client = proto::decode_reply(&buf[..len]).map(|(client, _)| client);
                assert_eq!(client, Some(c as u64), "reply routed to the wrong client");
            }
        }
    }
    let total_ops = clients * OPS_PER_CLIENT;
    println!("-- {clients} clients submitted {total_ops} ops, {CLIENT_BURST} clients a burst");
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
}
