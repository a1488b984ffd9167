//! The link-fault decorator on its own: two members on the in-memory
//! medium (or, once, on loopback UDP), each receiving through a
//! `FaultyDriver`, no worker and no threads — what arrives, what is
//! counted and what is decided is all observable at the driver surface.

use evs_net::{Completion, SocketDriver};
use evs_runtime::{Faults, FaultyDriver, LinkFault, MemDriver, TICK};
use evs_sim::ProcessId;
use evs_telemetry::{names, Telemetry, TelemetryEvent};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

fn addr(i: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 30_000 + i))
}

struct Pair {
    faults: Arc<Faults>,
    /// Members P0 and P1.
    drivers: [FaultyDriver; 2],
    telemetry: [Telemetry; 2],
    /// A non-member address on the same medium.
    outsider: Box<dyn SocketDriver>,
}

/// Two members and an outsider over `medium`, which binds address `i`
/// and returns its driver.
fn pair_over(seed: u64, mut medium: impl FnMut(u16) -> Box<dyn SocketDriver>) -> Pair {
    let faults = Faults::new(2);
    faults.set_seed(seed);
    let telemetry = [Telemetry::enabled(0), Telemetry::enabled(1)];
    let [d0, d1] = [medium(0), medium(1)];
    let peers = [&d0, &d1].map(|d| d.local_addr().expect("addr")).to_vec();
    let member = |i: u32, inner| {
        let telemetry = telemetry[i as usize].clone();
        FaultyDriver::new(inner, p(i), peers.clone(), Arc::clone(&faults), telemetry)
    };
    let drivers = [member(0, d0), member(1, d1)];
    Pair {
        drivers,
        outsider: medium(9),
        faults,
        telemetry,
    }
}

fn pair(seed: u64) -> Pair {
    let hub = Arc::default();
    pair_over(seed, |i| Box::new(MemDriver::bind(&hub, addr(i))))
}

impl Pair {
    /// Sends datagrams `0..count` (one byte-pair each) from `from` to `to`.
    fn send(&mut self, from: usize, to: usize, count: u16) {
        let to = self.drivers[to].local_addr().expect("addr");
        for k in 0..count {
            self.drivers[from].push(to, k.to_le_bytes().to_vec());
        }
        self.drivers[from].submit().expect("submit");
    }

    /// Receives at member `at` until `done` holds, then a little longer
    /// (more than any holdback configured here) for strays. Returns every
    /// datagram number received, in arrival order.
    fn pump(&mut self, at: usize, done: impl Fn(&Pair, usize) -> bool) -> Vec<u16> {
        let mut got: Vec<Completion> = Vec::new();
        let give_up = Instant::now() + Duration::from_secs(10);
        let mut linger = None;
        loop {
            self.drivers[at]
                .complete(Some(Duration::from_millis(1)), &mut got)
                .expect("complete");
            let now = Instant::now();
            if linger.is_none() && done(self, got.len()) {
                linger = Some(now + TICK * 16);
            }
            if linger.is_some_and(|until| now >= until) {
                break;
            }
            assert!(now < give_up, "stalled with {} received", got.len());
        }
        got.iter()
            .map(|(_, d)| u16::from_le_bytes([d[0], d[1]]))
            .collect()
    }

    fn received(count: usize) -> impl Fn(&Pair, usize) -> bool {
        move |_, got| got >= count
    }

    fn count(&self, at: usize, counter: &str) -> u64 {
        let snapshot = self.telemetry[at].snapshot().expect("enabled");
        snapshot.counters.get(counter).copied().unwrap_or(0)
    }

    /// The link decisions member `at` recorded, in order, without their
    /// wall-clock timestamps.
    fn decisions(&self, at: usize) -> Vec<TelemetryEvent> {
        let dump = self.telemetry[at].flight_dump();
        dump.into_iter().map(|r| r.event).collect()
    }
}

#[test]
fn a_fully_lossy_link_delivers_nothing_and_counts_every_packet() {
    let mut net = pair(1);
    net.faults.set_link(p(0), p(1), LinkFault::lossy(100));
    net.send(0, 1, 50);
    let all_dropped = |net: &Pair, _| net.count(1, names::LINK_DROPS) == 50;
    assert_eq!(net.pump(1, all_dropped), Vec::<u16>::new());
    // The policy is per directed link: the way back is clean...
    net.send(1, 0, 5);
    assert_eq!(net.pump(0, Pair::received(5)).len(), 5);
    // ...loopback is always reliable, and control traffic from a
    // non-member address is not the decorator's business.
    net.faults.set_all(LinkFault::lossy(100));
    net.send(1, 1, 3);
    let to = net.drivers[1].local_addr().expect("addr");
    net.outsider.push(to, vec![7, 0]);
    net.outsider.submit().expect("submit");
    assert_eq!(net.pump(1, Pair::received(4)), vec![0, 1, 2, 7]);
}

#[test]
fn delay_reorder_and_duplicate_are_recorded_and_lose_nothing() {
    let mut net = pair(2);
    let all: Vec<u16> = (0..40).collect();

    let delay = LinkFault {
        delay_lo: 2,
        delay_hi: 6,
        ..LinkFault::default()
    };
    net.faults.set_link(p(0), p(1), delay);
    net.send(0, 1, 40);
    let mut early = Vec::new();
    net.drivers[1].complete(None, &mut early).expect("complete");
    assert!(early.is_empty(), "every packet is held back on arrival");
    let mut got = net.pump(1, Pair::received(40));
    got.sort_unstable();
    assert_eq!(got, all, "delay loses nothing");
    assert_eq!(net.count(1, names::LINK_DELAYS), 40);
    assert!(net.decisions(1).iter().all(|e| matches!(
        e,
        TelemetryEvent::LinkPacketDelayed {
            from: 0,
            to: 1,
            ticks: 2..=6
        }
    )));

    let reorder = LinkFault {
        reorder_pct: 50,
        ..LinkFault::default()
    };
    net.faults.set_link(p(0), p(1), reorder);
    net.send(0, 1, 40);
    let mut got = net.pump(1, Pair::received(40));
    assert_ne!(got, all, "half the packets were overtaken");
    got.sort_unstable();
    assert_eq!(got, all, "reordering loses nothing");
    let held = net.count(1, names::LINK_DELAYS) - 40;
    assert!((1..40).contains(&held), "{held} of 40 held back");

    let duplicate = LinkFault {
        dup_pct: 100,
        ..LinkFault::default()
    };
    net.faults.set_link(p(0), p(1), duplicate);
    net.send(0, 1, 10);
    let mut got = net.pump(1, Pair::received(20));
    got.sort_unstable();
    let twice: Vec<u16> = (0..10).flat_map(|k| [k, k]).collect();
    assert_eq!(got, twice, "every packet arrives exactly twice");
    assert_eq!(net.count(1, names::LINK_DUPLICATES), 10);
    assert_eq!(net.count(1, names::LINK_DROPS), 0);
}

#[test]
fn a_partition_blocks_both_directions_and_merge_all_heals() {
    let mut net = pair(3);
    net.faults.partition(&[vec![p(0)], vec![p(1)]]);
    net.send(0, 1, 4);
    net.send(1, 0, 4);
    assert!(net.pump(1, Pair::received(0)).is_empty());
    assert!(net.pump(0, Pair::received(0)).is_empty());
    // A partition is not a link fault: nothing is counted as dropped.
    assert_eq!(net.count(0, names::LINK_DROPS), 0);
    net.faults.merge_all();
    net.send(0, 1, 4);
    net.send(1, 0, 4);
    assert_eq!(net.pump(1, Pair::received(4)).len(), 4);
    assert_eq!(net.pump(0, Pair::received(4)).len(), 4);
}

#[test]
fn same_seed_and_same_arrivals_make_the_same_decisions() {
    let everything = LinkFault {
        drop_pct: 30,
        delay_lo: 1,
        delay_hi: 3,
        dup_pct: 20,
        reorder_pct: 20,
    };
    let run = |seed: u64| {
        let mut net = pair(seed);
        net.faults.set_all(everything);
        net.send(0, 1, 200);
        // With `delay_lo` ≥ 1 every packet is either dropped or delayed.
        net.pump(1, |net, _| {
            net.count(1, names::LINK_DROPS) + net.count(1, names::LINK_DELAYS) == 200
        });
        net.decisions(1)
    };
    let first = run(0xFEED);
    assert!(first.len() > 200 / 2, "the policy was applied");
    assert_eq!(first, run(0xFEED), "same seed, same arrival sequence");
    assert_ne!(first, run(0xBEEF), "another seed is another stream");
}

/// Over two batched UDP drivers a burst of equal datagrams is one
/// segmented send and one coalesced read, yet the link policy still
/// decides datagram by datagram.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[test]
fn policies_apply_per_datagram_inside_one_coalesced_read() {
    use evs_net::{BatchUdpDriver, RECV_BATCH};
    let mut net = pair_over(5, |_| {
        let socket = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind loopback");
        Box::new(BatchUdpDriver::new(socket).expect("batch"))
    });
    const BURST: u16 = 64;
    const { assert!(BURST as usize > RECV_BATCH) };

    net.faults.set_link(p(0), p(1), LinkFault::lossy(50));
    net.send(0, 1, BURST);
    // One blocking reap: its first read is the whole burst.
    let mut got: Vec<Completion> = Vec::new();
    net.drivers[1]
        .complete(Some(Duration::from_secs(5)), &mut got)
        .expect("complete");
    let dropped = net.count(1, names::LINK_DROPS);
    assert_eq!(got.len() as u64 + dropped, u64::from(BURST), "one reap");
    assert!(
        (1..u64::from(BURST)).contains(&dropped),
        "{dropped} dropped"
    );
    let kept: Vec<u16> = got
        .iter()
        .map(|(_, d)| u16::from_le_bytes([d[0], d[1]]))
        .collect();
    assert!(kept.windows(2).all(|w| w[0] < w[1]), "survivors in order");

    let duplicate = LinkFault {
        dup_pct: 100,
        ..LinkFault::default()
    };
    net.faults.set_link(p(0), p(1), duplicate);
    net.send(0, 1, BURST);
    let mut got = net.pump(1, Pair::received(2 * BURST as usize));
    got.sort_unstable();
    let twice: Vec<u16> = (0..BURST).flat_map(|k| [k, k]).collect();
    assert_eq!(got, twice, "every datagram arrives exactly twice");
    assert_eq!(net.count(1, names::LINK_DUPLICATES), u64::from(BURST));
}
