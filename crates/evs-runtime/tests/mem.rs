//! The in-memory medium upholds the `SocketDriver` contract the UDP
//! drivers do.

use evs_net::SocketDriver;
use evs_runtime::MemDriver;
use std::net::SocketAddr;
use std::sync::Arc;
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
