//! The one worker loop, end to end: the same scripted scenario on the
//! in-memory medium and on real loopback UDP, and the crash-surviving
//! paths (kill then recover over the in-memory log, drop then reopen over
//! an on-disk one), every run checked against the paper's specifications.

use evs_core::{checker, trace_io, wire, EvsEvent, EvsParams, EvsProcess, Payload, Service, Trace};
use evs_net::SocketDriver;
use evs_runtime::{Cluster, MemDriver, ProcessTrace, Worker};
use evs_sim::ProcessId;
use evs_store::FileStorage;
use evs_telemetry::{names, total, Phase, Telemetry};
use std::collections::BTreeSet;
use std::fs::{self, File};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(30);

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn settled_with(n: usize) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node| node.is_settled() && node.current_config().members.len() == n
}

fn delivered(count: usize) -> impl Fn(&EvsProcess<Payload>) -> bool + Send + Clone {
    move |node| node.deliveries().iter().filter_map(|d| d.payload()).count() >= count
}

fn submit(net: &Cluster, at: u32, service: Service, text: String) {
    net.invoke(p(at), move |node, ctx| {
        node.submit(ctx, service, Payload::from(text.into_bytes()))
    });
}

/// Spec 1.4, stated directly: no process ever sent under a reused id.
fn assert_no_message_id_reused(trace: &[ProcessTrace]) {
    let mut seen = BTreeSet::new();
    for (_, event) in trace.iter().flatten() {
        if let EvsEvent::Send { id, .. } = event {
            assert!(seen.insert(*id), "message id {id:?} sent twice");
        }
    }
}

/// Form n=3, 32 agreed + 8 safe, a 2/1 partition with traffic on both
/// sides, merge.
fn scripted_scenario(net: Cluster) {
    assert!(net.wait_until(WAIT, settled_with(3)), "formation");
    for k in 0..40u32 {
        let service = if k % 5 == 4 {
            Service::Safe
        } else {
            Service::Agreed
        };
        submit(&net, k % 3, service, format!("m{k}"));
    }
    assert!(
        net.wait_until(WAIT, delivered(40)),
        "40 delivered everywhere"
    );

    net.faults().partition(&[vec![p(0), p(1)], vec![p(2)]]);
    assert!(net.wait_until_on(&[p(0), p(1)], WAIT, settled_with(2)));
    assert!(net.wait_until_on(&[p(2)], WAIT, settled_with(1)));
    submit(&net, 0, Service::Safe, "majority".into());
    submit(&net, 2, Service::Safe, "minority".into());
    assert!(
        net.wait_until(WAIT, delivered(41)),
        "each side delivers its own"
    );

    net.faults().merge_all();
    assert!(net.wait_until(WAIT, settled_with(3)), "merge");

    // The loaded run never leaned on the park backstop and never met a
    // datagram the medium could not carry.
    let run = net.snapshots();
    assert!(total(&run, names::TOKEN_ROTATIONS) > 0);
    assert_eq!(total(&run, names::PARK_BACKSTOP_FIRED), 0);
    assert_eq!(total(&run, names::OVERSIZED_DATAGRAMS_DROPPED), 0);
    checker::assert_evs(&Trace::new(net.shutdown()));
}

#[test]
fn scripted_scenario_holds_on_the_in_memory_medium() {
    scripted_scenario(Cluster::in_memory(3, true));
}

#[test]
fn scripted_scenario_holds_on_loopback_udp() {
    scripted_scenario(Cluster::udp_loopback(3).expect("bind loopback sockets"));
}

#[test]
fn a_cluster_without_telemetry_stays_detached() {
    let net = Cluster::in_memory(2, false);
    assert!(net.wait_until(WAIT, settled_with(2)));
    assert!(net.telemetry_handles().iter().all(|t| !t.is_enabled()));
    assert!(net.snapshots().is_empty());
    net.shutdown();
}

/// The `settled`, `members` and `deliveries` info keys of an `OBS?`
/// scrape are what a control plane reads a member's state from: each must
/// agree with the engine it describes.
#[test]
fn a_scrape_reports_the_members_settled_state_and_deliveries() {
    let net = Cluster::udp_loopback(3).expect("bind loopback sockets");
    assert!(net.wait_until(WAIT, settled_with(3)), "formation");
    for k in 0..4u32 {
        submit(&net, k % 3, Service::Agreed, format!("s{k}"));
    }
    assert!(net.wait_until(WAIT, delivered(4)), "delivery");
    for (i, addr) in net.addrs().iter().enumerate() {
        let expo = evs_obs::scrape(*addr, WAIT).expect("scrape");
        let info = |key: &str| expo.info.get(key).map(String::as_str);
        assert_eq!(info("settled"), Some("true"), "P{i}");
        let members = info("members").expect("members key");
        assert_eq!(members.split_whitespace().count(), 3, "P{i}: {members}");
        let deliveries = net.inspect(p(i as u32), |node, _| node.deliveries().len());
        assert_eq!(
            info("deliveries").map(|d| d.parse::<usize>().expect("a count")),
            Some(deliveries),
            "P{i}"
        );
    }
    net.shutdown();
}

#[test]
fn kill_then_recover_never_reuses_a_message_id() {
    let net = Cluster::in_memory(3, false);
    assert!(net.wait_until(WAIT, settled_with(3)), "formation");
    for k in 0..5 {
        submit(&net, 1, Service::Safe, format!("pre-{k}"));
    }
    assert!(net.wait_until(WAIT, delivered(5)));
    // No farewell callback: what the engine journaled is all there is.
    net.kill(p(1));
    assert!(net.wait_until_on(&[p(0), p(2)], WAIT, settled_with(2)));
    net.recover(p(1));
    assert!(net.wait_until(WAIT, settled_with(3)), "rejoin");
    for k in 0..5 {
        submit(&net, 1, Service::Safe, format!("post-{k}"));
    }
    assert!(net.wait_until_on(&[p(0), p(2)], WAIT, delivered(10)));
    let trace = net.shutdown();
    assert!(
        trace[1]
            .iter()
            .any(|(_, e)| matches!(e, EvsEvent::Fail { .. })),
        "the log supplied the fail the kill swallowed"
    );
    assert_no_message_id_reused(&trace);
    checker::assert_evs(&Trace::new(trace));
}

/// Runs a one-member worker over the WAL in `dir` on virtual ticks from
/// `start`: form, send `text` safe, deliver it. Returns the trace and the
/// last tick, and drops the worker with no farewell.
fn one_incarnation(dir: &std::path::Path, start: u64, text: &'static str) -> (ProcessTrace, u64) {
    let addr = SocketAddr::from(([127, 0, 0, 1], 20_000));
    let storage = Box::new(FileStorage::open(dir).expect("open WAL"));
    let mut worker = Worker::new(
        p(0),
        EvsProcess::with_storage(p(0), EvsParams::default(), storage),
        Box::new(MemDriver::bind(&Default::default(), addr)),
        vec![addr],
        Telemetry::disabled(),
    );
    let mut now = start;
    worker.start(now).expect("start");
    let mut submitted = false;
    while !delivered(1)(worker.node()) {
        assert!(now < start + 1_000_000, "no progress");
        // Everything due at this tick, then on to the next deadline.
        while worker.step(&|| now, None, &mut Vec::new()).expect("step") > 0 {}
        if worker.node().is_settled() && !submitted {
            submitted = true;
            let payload = Payload::from(text.as_bytes());
            worker
                .dispatch(now, Phase::Dispatch, |node, ctx| {
                    node.submit(ctx, Service::Safe, payload)
                })
                .expect("dispatch");
        } else {
            now = worker
                .next_deadline()
                .expect("a deadline is armed")
                .max(now);
        }
    }
    (worker.into_trace(), now)
}

#[test]
fn drop_then_reopen_over_a_file_wal_never_reuses_a_message_id() {
    let dir = std::env::temp_dir().join(format!("evs-runtime-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut life, end) = one_incarnation(&dir, 0, "first life");
    let (second, _) = one_incarnation(&dir, end + 1, "second life");
    life.extend(second);
    let trace = vec![life];
    assert_no_message_id_reused(&trace);
    checker::assert_evs(&Trace::new(trace));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Messages [`push_messages`] sends, and how many per dispatch.
const MESSAGES: usize = 10_000;
const BURST: usize = 100;

/// Runs a one-member worker on virtual ticks that forms, submits
/// [`MESSAGES`] agreed messages [`BURST`] per dispatch and delivers them
/// all, journaling to `journal` if given. With a journal the worker must
/// hold no event between dispatches. Returns the events it still holds.
fn push_messages(journal: Option<File>) -> ProcessTrace {
    let addr = SocketAddr::from(([127, 0, 0, 1], 20_000));
    let mut worker = Worker::new(
        p(0),
        EvsProcess::new(p(0), EvsParams::default()),
        Box::new(MemDriver::bind(&Default::default(), addr)),
        vec![addr],
        Telemetry::disabled(),
    );
    let journaled = journal.is_some();
    if let Some(file) = journal {
        worker.attach_journal(file);
    }
    let holds_nothing = |worker: &Worker| {
        assert!(
            !journaled || worker.trace().is_empty(),
            "a journaled worker holds {} event(s) between dispatches",
            worker.trace().len()
        );
    };
    let mut now = 0;
    worker.start(now).expect("start");
    holds_nothing(&worker);
    let mut submitted = 0;
    while submitted < MESSAGES || !delivered(MESSAGES)(worker.node()) {
        assert!(now < 10_000_000, "no progress");
        while worker.step(&|| now, None, &mut Vec::new()).expect("step") > 0 {
            holds_nothing(&worker);
        }
        holds_nothing(&worker);
        if worker.node().is_settled() && submitted < MESSAGES {
            let first = submitted;
            worker
                .dispatch(now, Phase::Dispatch, move |node, ctx| {
                    for k in first..first + BURST {
                        node.submit(
                            ctx,
                            Service::Agreed,
                            Payload::from(format!("m{k}").into_bytes()),
                        );
                    }
                })
                .expect("dispatch");
            submitted += BURST;
            holds_nothing(&worker);
        } else {
            now = worker
                .next_deadline()
                .expect("a deadline is armed")
                .max(now);
        }
    }
    worker.into_trace()
}

#[test]
fn a_journaled_worker_keeps_no_history_and_journals_it_all() {
    let path = std::env::temp_dir().join(format!("evs-runtime-journal-{}.txt", std::process::id()));
    let held = push_messages(Some(File::create(&path).expect("create journal")));
    assert!(held.is_empty(), "{} event(s) held at the end", held.len());
    // The same run without a journal keeps its history; the journal of
    // the first run is that history, line for line.
    let kept = push_messages(None);
    assert!(kept.len() > 2 * MESSAGES, "every send and delivery kept");
    let text = fs::read_to_string(&path).expect("read journal");
    let journal: ProcessTrace = text
        .lines()
        .enumerate()
        .map(|(k, line)| match trace_io::parse_line(line, k + 1) {
            Ok(trace_io::Line::Event(t, ev)) => (t, ev),
            other => panic!("journal line {}: {other:?}", k + 1),
        })
        .collect();
    assert_eq!(journal, kept);
    let _ = fs::remove_file(&path);
}

#[test]
fn a_torn_journal_tail_is_cut_before_the_reincarnation_appends() {
    let path = std::env::temp_dir().join(format!("evs-runtime-torn-{}.txt", std::process::id()));
    // Killed before its first line was whole: nothing survives.
    fs::write(&path, "@7 fai").expect("write journal");
    let (_, resume) = Worker::open_journal(&path).expect("open journal");
    assert_eq!((resume, fs::read(&path).expect("read").len()), (0, 0));
    // Two whole lines, the second a flight-dump line with the largest
    // tick, then a line killed mid-token.
    let kept = "@3 conf R1.0 * 0\n@40 token_rotations 1 2\n";
    fs::write(&path, format!("{kept}@41 send 0#1 R1.0 saf")).expect("write journal");
    let (journal, resume) = Worker::open_journal(&path).expect("open journal");
    assert_eq!(resume, 41);
    let addr = SocketAddr::from(([127, 0, 0, 1], 20_001));
    let mut worker = Worker::new(
        p(0),
        EvsProcess::new(p(0), EvsParams::default()),
        Box::new(MemDriver::bind(&Default::default(), addr)),
        vec![addr],
        Telemetry::disabled(),
    );
    worker.attach_journal(journal);
    worker.start(resume).expect("start");
    let text = fs::read_to_string(&path).expect("read journal");
    assert!(text.starts_with(kept), "{text}");
    assert!(
        text.len() > kept.len(),
        "the reincarnation journaled nothing"
    );
    for (k, line) in text.lines().enumerate() {
        trace_io::parse_line(line, k + 1).expect("every journal line parses");
    }
    let _ = fs::remove_file(&path);
}

#[test]
fn a_datagram_too_large_for_udp_is_dropped_and_counted_not_fatal() {
    let net = Cluster::udp_loopback(2).expect("bind loopback sockets");
    assert!(net.wait_until(WAIT, settled_with(2)), "formation");
    // One frame past the UDP ceiling: `sendmmsg` would refuse the whole
    // batch with EMSGSIZE.
    net.invoke(p(0), |node, ctx| {
        let big = Payload::from(vec![0xAB; evs_net::MAX_DATAGRAM + 1]);
        node.submit(ctx, Service::Agreed, big)
    });
    let sum = |name| total(&net.snapshots(), name);
    let give_up = Instant::now() + WAIT;
    while sum(names::OVERSIZED_DATAGRAMS_DROPPED) == 0 {
        assert!(Instant::now() < give_up, "the frame was never stamped");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Both workers are still serving: the token keeps rotating, and
    // shutdown reports no I/O error.
    let before = sum(names::TOKEN_ROTATIONS);
    while sum(names::TOKEN_ROTATIONS) == before {
        assert!(Instant::now() < give_up, "the ring stopped");
        std::thread::sleep(Duration::from_millis(1));
    }
    net.shutdown();
}

#[test]
fn a_visit_that_stamps_two_large_messages_is_sent_in_datagrams_that_fit() {
    let net = Cluster::udp_loopback(3).expect("bind loopback sockets");
    assert!(net.wait_until(WAIT, settled_with(3)), "formation");
    // Both are stamped on one token visit: together they are one data
    // batch too large for a datagram, each alone fits one.
    net.invoke(p(0), |node, ctx| {
        for fill in [0xA1, 0xB2] {
            node.submit(ctx, Service::Agreed, Payload::from(vec![fill; 40_000]));
        }
    });
    assert!(
        net.wait_until(WAIT, delivered(2)),
        "both delivered everywhere"
    );
    let run = net.snapshots();
    assert_eq!(total(&run, names::OVERSIZED_DATAGRAMS_DROPPED), 0);
    checker::assert_evs(&Trace::new(net.shutdown()));
}

#[test]
fn a_park_that_ends_with_no_timer_armed_is_counted() {
    // An engine that was never started has armed nothing: the park below
    // can only end at its cap, which is what the counter exists to show.
    let addr = SocketAddr::from(([127, 0, 0, 1], 20_000));
    let telemetry = Telemetry::enabled(0);
    let mut worker = Worker::new(
        p(0),
        EvsProcess::new(p(0), EvsParams::default()),
        Box::new(MemDriver::bind(&Default::default(), addr)),
        vec![addr],
        telemetry.clone(),
    );
    let cap = Some(Duration::from_millis(2));
    assert_eq!(worker.step(&|| 0, cap, &mut Vec::new()).expect("step"), 0);
    assert_eq!(telemetry.counter(names::PARK_BACKSTOP_FIRED).get(), 1);
    // A poll is not a park, and a crashed worker owes no deadline.
    worker.step(&|| 0, None, &mut Vec::new()).expect("step");
    worker.kill();
    worker.step(&|| 0, cap, &mut Vec::new()).expect("step");
    assert_eq!(telemetry.counter(names::PARK_BACKSTOP_FIRED).get(), 1);
}

/// Bytes from a hex string.
fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

#[test]
fn a_frame_of_another_wire_format_is_refused_and_counted() {
    // The golden `data` frame (`tests/golden_bytes.rs`) as the fixed-width
    // layout spelled it, and as the LEB128 layout spells it now.
    let fixed_width = unhex(
        "012a0000000000000003000000000700000000000000020000006a00000000000000020500000068656c6c6f",
    );
    let leb128 = unhex("072a030007026a020568656c6c6f");
    let hub = Default::default();
    let (addr, peer_addr) = (
        SocketAddr::from(([127, 0, 0, 1], 20_002)),
        SocketAddr::from(([127, 0, 0, 1], 20_003)),
    );
    let telemetry = Telemetry::enabled(0);
    let mut worker = Worker::new(
        p(0),
        EvsProcess::new(p(0), EvsParams::default()),
        Box::new(MemDriver::bind(&hub, addr)),
        vec![addr, peer_addr],
        telemetry.clone(),
    );
    let mut peer = MemDriver::bind(&hub, peer_addr);
    let mut hand = |datagram: Vec<u8>| {
        peer.push(addr, datagram);
        peer.submit().expect("submit");
        assert_eq!(worker.step(&|| 0, None, &mut Vec::new()).expect("step"), 1);
        assert!(worker.node().deliveries().is_empty(), "delivered");
        telemetry.counter(names::FRAMES_REFUSED).get()
    };
    assert_eq!(hand(wire::pack_frames([&fixed_width])), 1);
    assert_eq!(
        hand(wire::pack_frames([&leb128])),
        1,
        "the LEB128 frame decodes"
    );
    // A datagram whose length header runs past its end is one refusal.
    assert_eq!(hand(vec![0xff]), 2);
}
