//! The in-memory medium upholds the `SocketDriver` contract the UDP
//! drivers do, and a `Worker` over it puts on the medium what the engine
//! addressed.

use evs_core::{wire, EvsMsg, EvsParams, EvsProcess, Payload, Service};
use evs_net::{Completion, SocketDriver};
use evs_order::RingMsg;
use evs_runtime::{MemDriver, Worker};
use evs_sim::ProcessId;
use evs_telemetry::{Phase, Telemetry};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn addr(port: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], port))
}

#[test]
fn nothing_moves_before_submit_and_order_is_kept() {
    let hub = Arc::default();
    let mut a = MemDriver::bind(&hub, addr(1));
    let mut b = MemDriver::bind(&hub, addr(2));
    a.push(addr(2), vec![1]);
    a.push(addr(2), vec![2]);
    a.push(addr(9), vec![3]); // nobody there: dropped
    let mut got = Vec::new();
    assert_eq!(b.complete(None, &mut got).unwrap(), 0);
    assert_eq!((a.pending(), a.submit().unwrap(), a.pending()), (3, 3, 0));
    assert_eq!(b.complete(None, &mut got).unwrap(), 2);
    assert_eq!(got, vec![(addr(1), vec![1]), (addr(1), vec![2])]);
    assert_eq!(b.max_datagram(), usize::MAX);
}

#[test]
fn a_timed_complete_parks_until_mail_or_the_deadline() {
    let hub = Arc::default();
    let mut rx = MemDriver::bind(&hub, addr(1));
    let mut tx = MemDriver::bind(&hub, addr(2));
    let mut got = Vec::new();
    let wait = Duration::from_millis(30);
    let t0 = Instant::now();
    assert_eq!(rx.complete(Some(wait), &mut got).unwrap(), 0);
    assert!(t0.elapsed() >= wait, "really parked");
    let sender = std::thread::spawn(move || {
        tx.push(addr(1), b"wake".to_vec());
        tx.submit().unwrap();
    });
    // Far longer than the test may take: only the mail can end it.
    let long = Duration::from_secs(60);
    assert_eq!(rx.complete(Some(long), &mut got).unwrap(), 1);
    sender.join().unwrap();
}

/// The datagrams one driver was asked to send, one list per submit.
type Submits = Arc<Mutex<Vec<Vec<(SocketAddr, Vec<u8>)>>>>;

/// A [`MemDriver`] that records every datagram pushed on it.
struct Recording {
    inner: MemDriver,
    queued: Vec<(SocketAddr, Vec<u8>)>,
    submits: Submits,
}

impl SocketDriver for Recording {
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn push(&mut self, to: SocketAddr, payload: Vec<u8>) {
        self.queued.push((to, payload.clone()));
        self.inner.push(to, payload);
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn submit(&mut self) -> io::Result<usize> {
        let queued = std::mem::take(&mut self.queued);
        self.submits.lock().unwrap().push(queued);
        self.inner.submit()
    }

    fn complete(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Completion>,
    ) -> io::Result<usize> {
        self.inner.complete(timeout, out)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The frame kinds `datagram` carries, in order.
fn kinds(datagram: &[u8]) -> Vec<&'static str> {
    wire::unpack_frames(datagram)
        .unwrap()
        .iter()
        .map(|frame| match wire::decode(frame).unwrap() {
            EvsMsg::Ring(RingMsg::Data(_) | RingMsg::Batch(_)) => "data",
            EvsMsg::Ring(RingMsg::Token(_)) => "token",
            EvsMsg::Ring(RingMsg::Wake(_)) => "wake",
            _ => "other",
        })
        .collect()
}

/// `n` workers on one in-memory medium, each driver recording what it
/// was asked to send.
fn recorded_workers(n: usize) -> (Vec<Worker>, Vec<Submits>, Vec<SocketAddr>) {
    let hub = Arc::default();
    let addrs: Vec<SocketAddr> = (1..=n as u16).map(addr).collect();
    let submits: Vec<Submits> = (0..n).map(|_| Submits::default()).collect();
    let workers = (0..n)
        .map(|i| {
            let me = ProcessId::new(i as u32);
            let driver = Recording {
                inner: MemDriver::bind(&hub, addrs[i]),
                queued: Vec::new(),
                submits: Arc::clone(&submits[i]),
            };
            let node = EvsProcess::new(me, EvsParams::default());
            Worker::new(
                me,
                node,
                Box::new(driver),
                addrs.clone(),
                Telemetry::disabled(),
            )
        })
        .collect();
    (workers, submits, addrs)
}

/// Lock-step on virtual ticks: runs everything due at `now`.
fn run_due(workers: &mut [Worker], now: u64) {
    let mut reaped = 1;
    while reaped > 0 {
        reaped = 0;
        for w in workers.iter_mut() {
            reaped += w.step(&|| now, None, &mut Vec::new()).unwrap();
        }
    }
}

/// The next virtual tick anything is due at, after `now`.
fn next_due(workers: &[Worker], now: u64) -> u64 {
    workers
        .iter()
        .filter_map(Worker::next_deadline)
        .min()
        .unwrap()
        .max(now + 1)
}

fn formed(workers: &[Worker]) -> bool {
    let n = workers.len();
    workers
        .iter()
        .all(|w| w.node().is_settled() && w.node().current_config().members.len() == n)
}

#[test]
fn a_worker_sends_each_burst_once_to_each_other_member_and_never_to_itself() {
    const N: usize = 3;
    const BURST: usize = 8;
    let (mut workers, submits, addrs) = recorded_workers(N);
    let delivered = |w: &Worker| {
        w.node()
            .deliveries()
            .iter()
            .filter_map(|d| d.payload())
            .count()
    };

    let mut now = 0;
    for w in &mut workers {
        w.start(now).unwrap();
    }
    let mut burst_sent = false;
    while !workers.iter().all(|w| delivered(w) == BURST) {
        assert!(now < 1_000_000, "no progress by tick {now}");
        run_due(&mut workers, now);
        if formed(&workers) && !burst_sent {
            burst_sent = true;
            submits.iter().for_each(|s| s.lock().unwrap().clear());
            workers[0]
                .dispatch(now, Phase::Dispatch, |node, ctx| {
                    for k in 0..BURST {
                        node.submit(ctx, Service::Agreed, Payload::from(vec![k as u8; 64]));
                    }
                })
                .unwrap();
        } else {
            now = next_due(&workers, now);
        }
    }

    let mut bursts = 0;
    for (i, log) in submits.iter().enumerate() {
        for submit in log.lock().unwrap().iter() {
            let data: Vec<SocketAddr> = submit
                .iter()
                .filter(|(_, datagram)| kinds(datagram).contains(&"data"))
                .map(|(to, _)| *to)
                .collect();
            if data.is_empty() {
                continue;
            }
            bursts += 1;
            let others: Vec<SocketAddr> = (0..N).filter(|&j| j != i).map(|j| addrs[j]).collect();
            assert_eq!(data, others, "member {i}'s burst went to {data:?}");
        }
    }
    assert!(bursts > 0, "no burst was sent");
}

#[test]
fn submits_during_a_hold_put_their_data_and_the_token_on_the_wire_in_the_next_step() {
    const N: usize = 3;
    let (mut workers, submits, addrs) = recorded_workers(N);
    let mut now = 0;
    for w in &mut workers {
        w.start(now).unwrap();
    }
    loop {
        assert!(now < 1_000_000, "no hold by tick {now}");
        run_due(&mut workers, now);
        if formed(&workers) && workers[0].node().holds_token() {
            break;
        }
        now = next_due(&workers, now);
    }
    submits[0].lock().unwrap().clear();
    workers[0]
        .dispatch(now, Phase::Dispatch, |node, ctx| {
            node.submit(ctx, Service::Safe, Payload::from(vec![7; 64]));
            node.submit(ctx, Service::Safe, Payload::from(vec![8; 64]));
        })
        .unwrap();
    // The dispatch re-armed the pacing timer to fire at once: nothing
    // left yet, and the next step, on the same tick, sends the token.
    assert!(workers[0].node().holds_token());
    assert_eq!(workers[0].next_deadline(), Some(now));
    workers[0].step(&|| now, None, &mut Vec::new()).unwrap();
    assert!(!workers[0].node().holds_token());
    // Both messages in one frame to each other member, and the token
    // behind it to the successor, all in one driver submit.
    let log = submits[0].lock().unwrap();
    let sends: Vec<_> = log.iter().filter(|s| !s.is_empty()).collect();
    assert_eq!(sends.len(), 1, "{log:?}");
    let mut sent: Vec<(SocketAddr, Vec<&str>)> = sends[0]
        .iter()
        .map(|(to, datagram)| (*to, kinds(datagram)))
        .collect();
    sent.sort();
    assert_eq!(
        sent,
        vec![(addrs[1], vec!["data", "token"]), (addrs[2], vec!["data"])]
    );
}

#[test]
fn a_submit_away_from_the_held_token_puts_one_wake_to_the_holder_on_the_wire() {
    const N: usize = 3;
    let (mut workers, submits, addrs) = recorded_workers(N);
    let mut now = 0;
    for w in &mut workers {
        w.start(now).unwrap();
    }
    // A ring that stamped nothing parks its token at the representative.
    loop {
        assert!(now < 1_000_000, "no hold by tick {now}");
        run_due(&mut workers, now);
        if formed(&workers) && workers[0].node().holds_token() {
            break;
        }
        now = next_due(&workers, now);
    }
    submits[1].lock().unwrap().clear();
    workers[1]
        .dispatch(now, Phase::Dispatch, |node, ctx| {
            node.submit(ctx, Service::Safe, Payload::from(vec![7; 64]));
            node.submit(ctx, Service::Safe, Payload::from(vec![8; 64]));
        })
        .unwrap();
    // One wake for both submissions, to the holder, and nothing else.
    let sent: Vec<(SocketAddr, Vec<&str>)> = submits[1]
        .lock()
        .unwrap()
        .iter()
        .flatten()
        .map(|(to, datagram)| (*to, kinds(datagram)))
        .collect();
    assert_eq!(sent, vec![(addrs[0], vec!["wake"])]);
    // The holder releases the token on the same tick: it goes on to its
    // successor, the submitter.
    submits[0].lock().unwrap().clear();
    for _ in 0..3 {
        if !workers[0].node().holds_token() {
            break;
        }
        workers[0].step(&|| now, None, &mut Vec::new()).unwrap();
    }
    assert!(!workers[0].node().holds_token());
    let log = submits[0].lock().unwrap();
    let tokens: Vec<SocketAddr> = log
        .iter()
        .flatten()
        .filter(|(_, datagram)| kinds(datagram).contains(&"token"))
        .map(|(to, _)| *to)
        .collect();
    assert_eq!(tokens, vec![addrs[1]]);
}
