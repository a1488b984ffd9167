//! Kernel-batched UDP socket drivers for the EVS reproduction.
//!
//! The live UDP cluster (`examples/udp_cluster.rs`) used to pay one
//! `sendto` syscall per datagram and one `recvfrom` per loop iteration.
//! On a loaded three-node ring most of the wall clock went to syscall
//! entry/exit, not protocol work. This crate factors the socket edge
//! behind a [`SocketDriver`] trait shaped like an io_uring submission
//! queue — *push* outbound datagrams, *submit* them as one batch, *reap*
//! inbound datagrams as one batch — with two interchangeable
//! implementations:
//!
//! * [`BatchUdpDriver`] (Linux, 64-bit): one `sendmmsg(2)` per outbound
//!   flush and one `recvmmsg(2)` (with `MSG_WAITFORONE`) per inbound
//!   reap, so a burst of N datagrams costs one syscall instead of N.
//!   Inside that syscall, a run of datagrams with one destination and
//!   one length is one `UDP_SEGMENT` send (Linux ≥ 4.18), and with
//!   `UDP_GRO` on (Linux ≥ 5.0) the receiver reads it back as one
//!   coalesced buffer that the driver cuts into the original datagrams.
//!   The kernel then walks the stack once per run, not once per datagram.
//! * [`LoopUdpDriver`] (portable): plain `send_to`/`recv_from` loops
//!   with byte-for-byte identical observable behaviour — the unit tests
//!   prove the equivalence by running the same payload set through
//!   both drivers.
//!
//! This is the **only** crate in the workspace that contains `unsafe`:
//! the `sendmmsg`/`recvmmsg`/`setsockopt`/`getsockopt` declarations are
//! hand-written `extern "C"` items (std already links libc, so the symbols
//! resolve without adding a libc crate), and every other crate keeps its
//! `#![forbid(unsafe_code)]`. The unsafety is confined to the
//! `ffi`-facing batch module, every block states why it is sound, and
//! none of it escapes the safe driver API.
//!
//! Blocking model: [`SocketDriver::complete`] takes an optional timeout
//! and doubles as the event loop's *park* — the caller computes its next
//! protocol deadline (retransmission backoff, failure detection,
//! recovery stall) and sleeps in the kernel until either a datagram
//! lands or the deadline passes. A peer that needs to interrupt the park
//! just sends a datagram (the cluster uses `EVSW` wake frames for
//! that), which is exactly how an io_uring completion would wake a
//! reactor.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// Maximum kernel reads made by one [`SocketDriver::complete`] call.
///
/// Also the `vlen` passed to `recvmmsg`. A read is one datagram, or, on
/// a [`BatchUdpDriver`] with `UDP_GRO`, up to 64 coalesced ones, so one
/// reap returns at most 64 × this many completions. Bounded so one reap
/// cannot starve timer processing on a flooded socket.
pub const RECV_BATCH: usize = 32;

/// Maximum `mmsghdr`s handed to one `sendmmsg` call, each one datagram
/// or one segmented run of them. Outbound queues longer than this are
/// flushed in consecutive batches by a single [`SocketDriver::submit`]
/// call.
pub const SEND_BATCH: usize = 64;

/// Largest datagram the drivers can receive without truncation: the
/// UDP-over-IPv4 payload ceiling. The cluster's own frames stay under
/// `EvsParams::max_datagram_bytes` (60 000), comfortably inside this.
pub const MAX_DATAGRAM: usize = 65_507;

/// A received datagram: source address and payload bytes.
pub type Completion = (SocketAddr, Vec<u8>);

/// An io_uring-shaped batched socket: queue sends, submit them in one
/// batch, reap received datagrams in one batch.
///
/// The contract both implementations uphold (and the crate's tests
/// verify byte-for-byte):
///
/// * [`push`](SocketDriver::push) only queues — nothing reaches the wire
///   until [`submit`](SocketDriver::submit).
/// * [`submit`](SocketDriver::submit) sends every queued datagram, in
///   push order per destination, and returns how many went out.
/// * [`complete`](SocketDriver::complete) appends the datagrams of up to
///   [`RECV_BATCH`] kernel reads to `out`, one [`Completion`] per
///   datagram in arrival order (a coalesced read is cut back into the
///   datagrams that were sent), and returns the count. With
///   `Some(timeout)` it blocks in the kernel until the first datagram or
///   the deadline (this is the event loop's park); with `None` (or a
///   zero timeout) it drains only what is already queued and never
///   blocks.
pub trait SocketDriver: Send {
    /// The bound address of the underlying socket.
    fn local_addr(&self) -> io::Result<SocketAddr>;

    /// Queues one outbound datagram. No syscall happens here.
    fn push(&mut self, to: SocketAddr, payload: Vec<u8>);

    /// Number of queued-but-unsubmitted datagrams.
    fn pending(&self) -> usize;

    /// Flushes the outbound queue to the wire; returns datagrams sent.
    fn submit(&mut self) -> io::Result<usize>;

    /// Reaps up to [`RECV_BATCH`] kernel reads into `out`, one
    /// completion per datagram (a `UDP_GRO` read holds up to 64),
    /// blocking up to `timeout` for the first one. Returns the number
    /// appended; `Ok(0)` means the wait timed out (or, for
    /// `None`/zero timeouts, that nothing was queued).
    fn complete(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Completion>,
    ) -> io::Result<usize>;

    /// Short static name of the driver ("batch" / "loop") for telemetry
    /// and bench labels. A [`BatchUdpDriver`] whose kernel refused
    /// segmentation says "batch-unsegmented", so the downgrade shows.
    fn name(&self) -> &'static str;

    /// Largest datagram this medium carries; a larger one must not be
    /// pushed (`sendmmsg` fails the whole batch with `EMSGSIZE`). A
    /// property of the medium, not a setting: unlimited unless the driver
    /// says otherwise, [`MAX_DATAGRAM`] for the two UDP drivers.
    fn max_datagram(&self) -> usize {
        usize::MAX
    }
}

/// True when this build selects the `sendmmsg`/`recvmmsg` fast path for
/// IPv4 sockets (Linux on a 64-bit target). Bench output records this so
/// throughput numbers are attributable to the I/O path that produced
/// them.
pub const fn kernel_batched() -> bool {
    cfg!(all(target_os = "linux", target_pointer_width = "64"))
}

/// Wraps `socket` in the best driver for this platform: the kernel
/// batched [`BatchUdpDriver`] where available (Linux 64-bit, IPv4
/// socket), the portable [`LoopUdpDriver`] otherwise.
pub fn driver_for(socket: UdpSocket) -> io::Result<Box<dyn SocketDriver>> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        if socket.local_addr()?.is_ipv4() {
            return Ok(Box::new(BatchUdpDriver::new(socket)?));
        }
    }
    Ok(Box::new(LoopUdpDriver::new(socket)))
}

/// The portable driver: the same submit/complete surface implemented
/// with one `send_to`/`recv_from` syscall per datagram.
///
/// This is both the non-Linux fallback and the reference semantics the
/// batched driver is tested against.
pub struct LoopUdpDriver {
    socket: UdpSocket,
    sendq: Vec<(SocketAddr, Vec<u8>)>,
    buf: Vec<u8>,
    /// Cached `O_NONBLOCK` state, to skip redundant `fcntl`s. `None`
    /// until the first request — the inherited socket state is unknown,
    /// so the first request must always issue the syscall.
    nonblocking: Option<bool>,
    /// Cached `SO_RCVTIMEO`, to skip redundant `setsockopt`s (same
    /// unknown-until-first-request discipline).
    read_timeout: Option<Option<Duration>>,
}

impl LoopUdpDriver {
    /// Wraps a bound socket. The socket's blocking mode and read timeout
    /// become driver-managed from here on.
    pub fn new(socket: UdpSocket) -> Self {
        LoopUdpDriver {
            socket,
            sendq: Vec::new(),
            buf: vec![0u8; MAX_DATAGRAM],
            nonblocking: None,
            read_timeout: None,
        }
    }

    fn want_nonblocking(&mut self, nb: bool) -> io::Result<()> {
        if self.nonblocking != Some(nb) {
            self.socket.set_nonblocking(nb)?;
            self.nonblocking = Some(nb);
        }
        Ok(())
    }

    fn want_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        if self.read_timeout != Some(t) {
            self.socket.set_read_timeout(t)?;
            self.read_timeout = Some(t);
        }
        Ok(())
    }
}

/// `recv` errno meaning "nothing there / wait expired" rather than a
/// real failure: `EAGAIN`/`EWOULDBLOCK` (Linux reports a `SO_RCVTIMEO`
/// expiry as `EAGAIN`) or `ETIMEDOUT` on platforms that use it.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

impl SocketDriver for LoopUdpDriver {
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn push(&mut self, to: SocketAddr, payload: Vec<u8>) {
        self.sendq.push((to, payload));
    }

    fn pending(&self) -> usize {
        self.sendq.len()
    }

    fn submit(&mut self) -> io::Result<usize> {
        if self.sendq.is_empty() {
            return Ok(0);
        }
        // Sends must not fail spuriously because `complete` left the
        // socket non-blocking and the send buffer is momentarily full.
        self.want_nonblocking(false)?;
        let q = std::mem::take(&mut self.sendq);
        let mut sent = 0;
        for (to, buf) in q {
            self.socket.send_to(&buf, to)?;
            sent += 1;
        }
        Ok(sent)
    }

    fn complete(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Completion>,
    ) -> io::Result<usize> {
        let mut reaped = 0;
        if let Some(d) = timeout {
            if !d.is_zero() {
                // Park: block in the kernel for the first datagram.
                self.want_nonblocking(false)?;
                self.want_read_timeout(Some(d))?;
                match self.socket.recv_from(&mut self.buf) {
                    Ok((len, from)) => {
                        out.push((from, self.buf[..len].to_vec()));
                        reaped = 1;
                    }
                    Err(e) if is_timeout(&e) => return Ok(0),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => return Ok(0),
                    Err(e) => return Err(e),
                }
            }
        }
        // Drain whatever else is already queued, without blocking —
        // the batched analogue of `MSG_WAITFORONE`'s follow-up reaps.
        self.want_nonblocking(true)?;
        while reaped < RECV_BATCH {
            match self.socket.recv_from(&mut self.buf) {
                Ok((len, from)) => {
                    out.push((from, self.buf[..len].to_vec()));
                    reaped += 1;
                }
                Err(e) if is_timeout(&e) => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => break,
                Err(e) => return Err(e),
            }
        }
        Ok(reaped)
    }

    fn name(&self) -> &'static str {
        "loop"
    }

    fn max_datagram(&self) -> usize {
        MAX_DATAGRAM
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod batch;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub use batch::BatchUdpDriver;

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn bind() -> UdpSocket {
        UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback")
    }

    /// Deterministic payload for datagram `i` of a test run: varied
    /// length (1..=sz_cap bytes) and content, reproducible without a
    /// clock or RNG dependency.
    fn payload(tag: u8, i: u64, sz_cap: usize) -> Vec<u8> {
        let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let len = 1 + (x as usize % sz_cap);
        let mut v = Vec::with_capacity(len + 9);
        v.push(tag);
        v.extend_from_slice(&i.to_be_bytes());
        while v.len() < len + 9 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.push(x as u8);
        }
        v
    }

    /// Sends `n` deterministic datagrams through `tx`, reaps them all
    /// from `rx`, and returns the received payloads sorted (UDP makes no
    /// cross-datagram ordering promise, even on loopback).
    fn pump(
        tx: &mut dyn SocketDriver,
        rx: &mut dyn SocketDriver,
        tag: u8,
        n: u64,
        sz_cap: usize,
    ) -> Vec<Vec<u8>> {
        let to = rx.local_addr().expect("rx addr");
        let mut got: Vec<Completion> = Vec::new();
        for i in 0..n {
            tx.push(to, payload(tag, i, sz_cap));
            // Interleave submits and reaps so the loopback receive
            // buffer never overflows, whatever its configured size.
            if i % 16 == 15 {
                assert_eq!(tx.submit().expect("submit"), 16);
                while rx
                    .complete(Some(Duration::from_millis(50)), &mut got)
                    .expect("reap")
                    > 0
                {}
            }
        }
        let tail = tx.submit().expect("final submit");
        assert_eq!(tail as u64, n % 16);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while (got.len() as u64) < n && std::time::Instant::now() < deadline {
            rx.complete(Some(Duration::from_millis(50)), &mut got)
                .expect("reap tail");
        }
        assert_eq!(got.len() as u64, n, "all datagrams delivered");
        let mut bufs: Vec<Vec<u8>> = got.into_iter().map(|(_, b)| b).collect();
        bufs.sort();
        bufs
    }

    fn expected(tag: u8, n: u64, sz_cap: usize) -> Vec<Vec<u8>> {
        let mut v: Vec<Vec<u8>> = (0..n).map(|i| payload(tag, i, sz_cap)).collect();
        v.sort();
        v
    }

    #[test]
    fn loop_driver_round_trips_byte_for_byte() {
        let mut tx = LoopUdpDriver::new(bind());
        let mut rx = LoopUdpDriver::new(bind());
        assert_eq!(pump(&mut tx, &mut rx, 1, 96, 900), expected(1, 96, 900));
        assert_eq!(tx.name(), "loop");
    }

    /// The satellite proof: the same payload set pushed through the
    /// batched driver and the sequential driver arrives byte-for-byte
    /// identical, in both directions (batched sender → loop receiver and
    /// loop sender → batched receiver), so swapping drivers can never
    /// change what the protocol stack observes.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn batched_equals_sequential_byte_for_byte() {
        let mut batch_tx = BatchUdpDriver::new(bind()).expect("batch tx");
        let mut batch_rx = BatchUdpDriver::new(bind()).expect("batch rx");
        let mut loop_tx = LoopUdpDriver::new(bind());
        let mut loop_rx = LoopUdpDriver::new(bind());
        let want = expected(7, 128, 1_200);
        // batch → batch, batch → loop, loop → batch: all three paths
        // must reproduce exactly the bytes the sequential reference
        // (loop → loop, checked above) produces.
        assert_eq!(pump(&mut batch_tx, &mut batch_rx, 7, 128, 1_200), want);
        assert_eq!(pump(&mut batch_tx, &mut loop_rx, 7, 128, 1_200), want);
        assert_eq!(pump(&mut loop_tx, &mut batch_rx, 7, 128, 1_200), want);
        assert_eq!(batch_tx.name(), "batch");
    }

    /// A datagram at the cluster's configured ceiling (60 000 bytes,
    /// `EvsParams::max_datagram_bytes`) survives the batched path
    /// untruncated.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn batch_driver_carries_max_datagram() {
        let mut tx = BatchUdpDriver::new(bind()).expect("tx");
        let mut rx = BatchUdpDriver::new(bind()).expect("rx");
        let to = rx.local_addr().expect("addr");
        let big: Vec<u8> = (0..60_000u32).map(|i| (i % 251) as u8).collect();
        tx.push(to, big.clone());
        assert_eq!(tx.pending(), 1);
        assert_eq!(tx.submit().expect("submit"), 1);
        assert_eq!(tx.pending(), 0);
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.is_empty() && std::time::Instant::now() < deadline {
            rx.complete(Some(Duration::from_millis(50)), &mut got)
                .expect("reap");
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, big);
    }

    #[test]
    fn complete_none_is_a_nonblocking_poll() {
        let mut rx = LoopUdpDriver::new(bind());
        let mut got = Vec::new();
        let start = std::time::Instant::now();
        assert_eq!(rx.complete(None, &mut got).expect("poll"), 0);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "did not block"
        );
        assert!(got.is_empty());
    }

    #[test]
    fn complete_timeout_expires_empty() {
        let mut rx = LoopUdpDriver::new(bind());
        let mut got = Vec::new();
        let n = rx
            .complete(Some(Duration::from_millis(20)), &mut got)
            .expect("park");
        assert_eq!(n, 0);
        assert!(got.is_empty());
    }

    #[test]
    fn driver_for_picks_the_platform_fast_path() {
        let d = driver_for(bind()).expect("driver");
        if kernel_batched() {
            assert_eq!(d.name(), "batch");
        } else {
            assert_eq!(d.name(), "loop");
        }
    }

    #[test]
    fn unsubmitted_pushes_stay_queued() {
        let mut tx = LoopUdpDriver::new(bind());
        let mut rx = LoopUdpDriver::new(bind());
        let to = rx.local_addr().expect("addr");
        tx.push(to, vec![1, 2, 3]);
        assert_eq!(tx.pending(), 1);
        let mut got = Vec::new();
        // Nothing reaches the wire before submit().
        assert_eq!(
            rx.complete(Some(Duration::from_millis(30)), &mut got)
                .expect("reap"),
            0
        );
        assert_eq!(tx.submit().expect("submit"), 1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while got.is_empty() && std::time::Instant::now() < deadline {
            rx.complete(Some(Duration::from_millis(50)), &mut got)
                .expect("reap");
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, vec![1, 2, 3]);
    }
}
