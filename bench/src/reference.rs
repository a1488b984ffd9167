//! Fixed reference kernels for host-speed normalisation.
//!
//! A shared VM runs the same instruction stream ±14 % slower or faster from
//! one second to the next. After every measured segment the harness times
//! these two kernels, whose work never changes, and scales the segment's
//! time by how fast the host ran them: user-mode time by [`RefUser`] (the
//! engine's profile: allocate, chase pointers through a `BTreeMap`, copy
//! payload-sized blocks) and kernel time by [`RefSys`] (loopback datagrams
//! through the same `SocketDriver`). The nominal durations are constants, so
//! a speed of 1.0 means "the host this benchmark was defined on".

use crate::trace::now_ns;
use evs_net::{Completion, SocketDriver};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::net::UdpSocket;

/// Seconds one [`RefUser::run`] takes at host speed 1.0.
pub const REF_USER_NOMINAL_S: f64 = 0.0104;
/// Seconds one [`RefSys::run`] takes at host speed 1.0.
pub const REF_SYS_NOMINAL_S: f64 = 0.00095;

const MAP_ENTRIES: usize = 400_000;
const VALUE_BYTES: usize = 240;
const INSERTS_PER_RUN: usize = 6_000;
const SCAN_ENTRIES: usize = 2_000;

/// The user-mode kernel: a 400k-entry `BTreeMap` of 240 B values; one run
/// inserts 6,000 fresh entries, evicts the 6,000 oldest and scans 2,000.
pub struct RefUser {
    map: BTreeMap<u64, Vec<u8>>,
    oldest_first: VecDeque<u64>,
    lcg: u64,
}

impl RefUser {
    pub fn new() -> RefUser {
        let mut r = RefUser {
            map: BTreeMap::new(),
            oldest_first: VecDeque::with_capacity(MAP_ENTRIES + 1),
            lcg: 0x9E37_79B9_7F4A_7C15,
        };
        for _ in 0..MAP_ENTRIES {
            r.insert();
        }
        r
    }

    fn next_key(&mut self) -> u64 {
        self.lcg = self
            .lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.lcg
    }

    fn insert(&mut self) {
        let key = self.next_key();
        let mut value = vec![0u8; VALUE_BYTES];
        value[..8].copy_from_slice(&key.to_le_bytes());
        if self.map.insert(key, value).is_none() {
            self.oldest_first.push_back(key);
        }
    }

    /// Runs the kernel once and returns the seconds it took.
    pub fn run(&mut self) -> f64 {
        let t0 = now_ns();
        for _ in 0..INSERTS_PER_RUN {
            self.insert();
            if let Some(old) = self.oldest_first.pop_front() {
                black_box(self.map.remove(&old));
            }
        }
        let from = self.next_key();
        let mut sum = 0u64;
        for (k, v) in self.map.range(from..).take(SCAN_ENTRIES) {
            sum = sum
                .wrapping_add(*k)
                .wrapping_add(v[8] as u64 + v.len() as u64);
        }
        black_box(sum);
        (now_ns() - t0) as f64 / 1e9
    }
}

const ROUNDS: usize = 40;
const BURST: usize = 16;
const DATAGRAM_BYTES: usize = 300;
const LOST_AFTER: std::time::Duration = std::time::Duration::from_millis(200);

/// The kernel-mode kernel: 40 bursts of 16 datagrams of 300 B through a
/// loopback `driver_for` socket to itself.
pub struct RefSys {
    driver: Box<dyn SocketDriver>,
    inbox: Vec<Completion>,
}

impl RefSys {
    pub fn new() -> std::io::Result<RefSys> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        Ok(RefSys {
            driver: evs_net::driver_for(socket)?,
            inbox: Vec::with_capacity(BURST),
        })
    }

    /// Runs the kernel once and returns the seconds it took.
    pub fn run(&mut self) -> std::io::Result<f64> {
        let me = self.driver.local_addr()?;
        let t0 = now_ns();
        for round in 0..ROUNDS {
            for _ in 0..BURST {
                self.driver.push(me, vec![round as u8; DATAGRAM_BYTES]);
            }
            self.driver.submit()?;
            let mut got = 0;
            while got < BURST {
                self.inbox.clear();
                // Loopback delivery is synchronous with the send, so the
                // non-blocking reap the reactor uses normally finds the
                // burst; the blocking one only covers a deferred softirq.
                let mut n = self.driver.complete(None, &mut self.inbox)?;
                if n == 0 {
                    n = self.driver.complete(Some(LOST_AFTER), &mut self.inbox)?;
                }
                if n == 0 {
                    return Err(std::io::Error::other("reference datagram lost on loopback"));
                }
                got += n;
            }
        }
        Ok((now_ns() - t0) as f64 / 1e9)
    }
}
