//! The `sendmmsg`/`recvmmsg` fast path, with UDP segmentation offload on
//! both sides. All `unsafe` in the workspace lives in this module.
//!
//! * **Send.** Consecutive queued datagrams with one destination and one
//!   length form a *run* (see [`BatchUdpDriver::run_len`] for its bounds).
//!   A run of two or more goes out as one `mmsghdr` whose iovecs are the
//!   datagrams and whose `UDP_SEGMENT` control message tells the kernel
//!   where to cut; a run of one is a plain datagram.
//! * **Receive.** `UDP_GRO` is on, so one kernel read can hold a whole
//!   run. Its `UDP_GRO` control message gives the segment size, and
//!   `complete` cuts the read back into one [`Completion`] per datagram,
//!   in order, each carrying the sender's address.
//!
//! A kernel that refuses a segmented run (`EINVAL`/`EIO`: a path MTU under
//! the segment, `SO_NO_CHECK` on the socket, no checksum offload) gets it
//! again as plain datagrams, and the driver sends unsegmented from then
//! on, reporting `batch-unsegmented` as its [`SocketDriver::name`].

use super::{is_timeout, Completion, SocketDriver, MAX_DATAGRAM, RECV_BATCH, SEND_BATCH};
use std::ffi::c_void;
use std::io;
use std::mem::size_of;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::os::fd::AsRawFd;
use std::ptr;
use std::time::Duration;

/// `AF_INET`.
const AF_INET: u16 = 2;
/// `MSG_DONTWAIT`: reap only what is already queued, never block.
const MSG_DONTWAIT: i32 = 0x40;
/// `MSG_WAITFORONE`: block (honouring `SO_RCVTIMEO`) for the first
/// datagram, then turn on `MSG_DONTWAIT` for the rest of the batch.
const MSG_WAITFORONE: i32 = 0x10000;
/// `SOL_UDP` (`IPPROTO_UDP`): the level of the two options below.
const SOL_UDP: i32 = 17;
/// `UDP_SEGMENT` (Linux ≥ 4.18): the send-side segment size, a `u16`
/// control message.
const UDP_SEGMENT: i32 = 103;
/// `UDP_GRO` (Linux ≥ 5.0): a socket option turning coalesced reads on,
/// and the receive-side `int` control message carrying their segment size.
const UDP_GRO: i32 = 104;

/// Largest datagram a run may hold: an IPv4/UDP payload inside a 1,500 B
/// Ethernet MTU, so a run's segments fit any link a datagram of that
/// size would.
const SEGMENT_MAX: usize = 1_472;
/// Most datagrams in one run: the kernel's `UDP_MAX_SEGMENTS`, which is
/// also the most segments one `UDP_GRO` read holds.
const RUN_MAX: usize = 64;

/// `struct iovec` (Linux, 64-bit).
#[repr(C)]
struct IoVec {
    base: *mut u8,
    len: usize,
}

/// `struct sockaddr_in`, network byte order where the ABI says so.
#[repr(C)]
#[derive(Clone, Copy)]
struct SockAddrIn {
    family: u16,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

impl SockAddrIn {
    fn from_v4(sa: &SocketAddrV4) -> SockAddrIn {
        SockAddrIn {
            family: AF_INET,
            port_be: sa.port().to_be(),
            addr_be: u32::from(*sa.ip()).to_be(),
            zero: [0; 8],
        }
    }

    fn zeroed() -> SockAddrIn {
        SockAddrIn {
            family: 0,
            port_be: 0,
            addr_be: 0,
            zero: [0; 8],
        }
    }

    fn to_socket_addr(self) -> SocketAddr {
        SocketAddr::V4(SocketAddrV4::new(
            Ipv4Addr::from(u32::from_be(self.addr_be)),
            u16::from_be(self.port_be),
        ))
    }
}

/// `struct msghdr` (Linux, 64-bit). glibc declares `msg_iovlen` and
/// `msg_controllen` as `size_t`; musl as `int` plus explicit
/// padding. On little-endian 64-bit targets writing them as `usize`
/// produces identical bytes for the values this module uses (always
/// `< 2^31`), so one layout serves both libcs.
#[repr(C)]
struct MsgHdr {
    name: *mut SockAddrIn,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: i32,
}

/// `struct mmsghdr`: a `msghdr` plus the kernel-reported datagram
/// length.
#[repr(C)]
struct MMsgHdr {
    hdr: MsgHdr,
    len: u32,
}

/// `struct cmsghdr` (Linux, 64-bit; the same `size_t`-vs-`int` note as
/// [`MsgHdr`] applies to `len`). Its data starts right after it, at
/// `CMSG_DATA`: 16 bytes in, already 8-aligned.
#[repr(C)]
struct CmsgHdr {
    len: usize,
    level: i32,
    kind: i32,
}

/// One `UDP_SEGMENT` control message, padded to `CMSG_SPACE(2)`.
#[repr(C)]
struct SegmentCmsg {
    hdr: CmsgHdr,
    size: u16,
    pad: [u8; 6],
}

impl SegmentCmsg {
    /// The message for a run of `size`-byte datagrams. It is attached
    /// only to runs, whose datagrams are at most [`SEGMENT_MAX`] bytes.
    fn new(size: usize) -> SegmentCmsg {
        SegmentCmsg {
            hdr: CmsgHdr {
                // `CMSG_LEN(sizeof(u16))`.
                len: size_of::<CmsgHdr>() + size_of::<u16>(),
                level: SOL_UDP,
                kind: UDP_SEGMENT,
            },
            size: size as u16,
            pad: [0; 6],
        }
    }
}

/// A read's control buffer: room for the `UDP_GRO` message and any other
/// the socket's owner may have turned on, 8-aligned like `cmsghdr`.
type RecvControl = [u64; 8];

/// The segment size of a coalesced read, from the first `len` bytes its
/// control buffer holds; `None` for a read of one datagram.
fn gro_segment(control: &RecvControl, len: usize) -> Option<usize> {
    let mut bytes = [0u8; size_of::<RecvControl>()];
    for (to, word) in bytes.chunks_exact_mut(8).zip(control) {
        to.copy_from_slice(&word.to_ne_bytes());
    }
    let bytes = &bytes[..len.min(bytes.len())];
    let head = size_of::<CmsgHdr>();
    let word = |at: usize| i32::from_ne_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let mut at = 0;
    while at + head <= bytes.len() {
        let len = usize::from_ne_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        if len < head || len > bytes.len() - at {
            return None;
        }
        if word(at + 8) == SOL_UDP && word(at + 12) == UDP_GRO && len >= head + 4 {
            return usize::try_from(word(at + head)).ok();
        }
        // `CMSG_NXTHDR`: the next message starts 8-aligned.
        at += len.next_multiple_of(8);
    }
    None
}

/// `struct timespec` (64-bit), for `recvmmsg`'s (unused — we pass
/// null and rely on `SO_RCVTIMEO`) timeout parameter type.
#[repr(C)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

// std links libc, so these resolve without a libc crate dependency.
extern "C" {
    fn sendmmsg(fd: i32, msgvec: *mut MMsgHdr, vlen: u32, flags: i32) -> i32;
    fn recvmmsg(
        fd: i32,
        msgvec: *mut MMsgHdr,
        vlen: u32,
        flags: i32,
        timeout: *mut TimeSpec,
    ) -> i32;
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const c_void, len: u32) -> i32;
    fn getsockopt(fd: i32, level: i32, name: i32, value: *mut c_void, len: *mut u32) -> i32;
}

/// Sets an `int` socket option.
fn set_int_option(socket: &UdpSocket, level: i32, name: i32, value: i32) -> io::Result<()> {
    // SAFETY: `value` is a live `int` for the whole call, and its size is
    // the length passed.
    let rc = unsafe {
        setsockopt(
            socket.as_raw_fd(),
            level,
            name,
            ptr::from_ref(&value).cast(),
            size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// True when the kernel knows the `UDP_SEGMENT` option (Linux ≥ 4.18).
/// Before it, a segmented send would silently go out as one datagram of
/// the whole run, so it must be asked rather than tried.
fn kernel_segments(socket: &UdpSocket) -> bool {
    let mut value = 0i32;
    let mut len = size_of::<i32>() as u32;
    // SAFETY: `value` and `len` are live for the whole call, and `len`
    // holds the size of `value`.
    let rc = unsafe {
        getsockopt(
            socket.as_raw_fd(),
            SOL_UDP,
            UDP_SEGMENT,
            ptr::from_mut(&mut value).cast(),
            &mut len,
        )
    };
    rc == 0
}

/// A send refused for its segmentation rather than its datagrams.
fn refused(e: &io::Error) -> bool {
    // EIO, EINVAL.
    matches!(e.raw_os_error(), Some(5 | 22))
}

/// `count` consecutive queued datagrams from `first` on, sent as one
/// `mmsghdr`.
struct Run {
    first: usize,
    count: usize,
}

/// The kernel-batched driver: `sendmmsg` with `UDP_SEGMENT` runs on
/// submit, `recvmmsg` with `MSG_WAITFORONE` and `UDP_GRO` on complete.
/// IPv4 only — [`super::driver_for`] routes IPv6 sockets to the portable
/// driver.
pub struct BatchUdpDriver {
    socket: UdpSocket,
    sendq: Vec<(SocketAddrV4, Vec<u8>)>,
    /// Whether runs of two or more go out segmented. Off for good once
    /// the kernel refuses one.
    segmenting: bool,
    /// Persistent receive buffers, one per `recvmmsg` slot. Their
    /// backing storage never reallocates, so iovec pointers built
    /// per call stay valid for the call's duration.
    recv_bufs: Vec<Vec<u8>>,
    recv_names: Vec<SockAddrIn>,
    recv_iovs: Vec<IoVec>,
    recv_controls: Vec<RecvControl>,
    recv_hdrs: Vec<MMsgHdr>,
    /// Send scratch, rebuilt per `sendmmsg` and kept for its capacity:
    /// one run, name, control message and header per `mmsghdr`, one
    /// iovec per datagram.
    runs: Vec<Run>,
    send_names: Vec<SockAddrIn>,
    send_iovs: Vec<IoVec>,
    send_controls: Vec<SegmentCmsg>,
    send_hdrs: Vec<MMsgHdr>,
    /// Cached `SO_RCVTIMEO`; `None` until the first request so the
    /// inherited (unknown) socket state is never trusted.
    read_timeout: Option<Option<Duration>>,
}

// SAFETY: every field is `Send` but the raw pointers in the iovec and
// header scratch vectors. Those only ever point into buffers this driver
// owns (its queue, names, control messages and receive buffers), are
// rebuilt before every syscall and are never read in between, so moving
// the driver across threads is safe.
unsafe impl Send for BatchUdpDriver {}

impl BatchUdpDriver {
    /// Wraps a bound IPv4 socket and turns `UDP_GRO` on where the kernel
    /// has it. Fails if the socket is IPv6 (the sockaddr marshalling here
    /// is `sockaddr_in` only).
    pub fn new(socket: UdpSocket) -> io::Result<BatchUdpDriver> {
        if !socket.local_addr()?.is_ipv4() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "BatchUdpDriver is IPv4-only; use LoopUdpDriver for IPv6",
            ));
        }
        // `recvmmsg` blocking behaviour relies on a blocking socket
        // plus SO_RCVTIMEO; make the mode explicit.
        socket.set_nonblocking(false)?;
        // Without it (Linux < 5.0) the kernel segments a run on arrival
        // and every read is one datagram, as before.
        let _ = set_int_option(&socket, SOL_UDP, UDP_GRO, 1);
        Ok(BatchUdpDriver {
            segmenting: kernel_segments(&socket),
            socket,
            sendq: Vec::new(),
            recv_bufs: (0..RECV_BATCH).map(|_| vec![0u8; MAX_DATAGRAM]).collect(),
            recv_names: Vec::with_capacity(RECV_BATCH),
            recv_iovs: Vec::with_capacity(RECV_BATCH),
            recv_controls: vec![[0; 8]; RECV_BATCH],
            recv_hdrs: Vec::with_capacity(RECV_BATCH),
            runs: Vec::with_capacity(SEND_BATCH),
            send_names: Vec::with_capacity(SEND_BATCH),
            send_iovs: Vec::with_capacity(SEND_BATCH),
            send_controls: Vec::with_capacity(SEND_BATCH),
            send_hdrs: Vec::with_capacity(SEND_BATCH),
            read_timeout: None,
        })
    }

    fn want_read_timeout(&mut self, t: Option<Duration>) -> io::Result<()> {
        if self.read_timeout != Some(t) {
            self.socket.set_read_timeout(t)?;
            self.read_timeout = Some(t);
        }
        Ok(())
    }

    /// How many queued datagrams from `first` on go out as one run: those
    /// with its destination and its length, non-empty and at most
    /// [`SEGMENT_MAX`] bytes each, at most [`RUN_MAX`] of them, and at
    /// most [`MAX_DATAGRAM`] bytes together. One when not segmenting.
    fn run_len(&self, first: usize) -> usize {
        let (to, head) = &self.sendq[first];
        let size = head.len();
        if !self.segmenting || size == 0 || size > SEGMENT_MAX {
            return 1;
        }
        let most = RUN_MAX.min(MAX_DATAGRAM / size);
        let rest = self.sendq[first + 1..].iter().take(most - 1);
        1 + rest.take_while(|(t, d)| t == to && d.len() == size).count()
    }

    /// Plans up to [`SEND_BATCH`] runs from queued datagram `next` on and
    /// builds their `mmsghdr`s.
    fn build_send(&mut self, mut next: usize) {
        self.runs.clear();
        while next < self.sendq.len() && self.runs.len() < SEND_BATCH {
            let count = self.run_len(next);
            self.runs.push(Run { first: next, count });
            next += count;
        }
        self.send_names.clear();
        self.send_iovs.clear();
        self.send_controls.clear();
        self.send_hdrs.clear();
        for run in &self.runs {
            let datagrams = &self.sendq[run.first..run.first + run.count];
            let (to, head) = &datagrams[0];
            self.send_names.push(SockAddrIn::from_v4(to));
            self.send_controls.push(SegmentCmsg::new(head.len()));
            for (_, buf) in datagrams {
                self.send_iovs.push(IoVec {
                    // sendmmsg never writes through the iovec; the
                    // mut cast is an ABI formality.
                    base: buf.as_ptr() as *mut u8,
                    len: buf.len(),
                });
            }
        }
        // Every vector is complete: one base pointer each, offsets from
        // there, so no later borrow of a vector invalidates a header.
        let names = self.send_names.as_mut_ptr();
        let iovs = self.send_iovs.as_mut_ptr();
        let controls = self.send_controls.as_mut_ptr();
        let mut iov = 0;
        for (k, run) in self.runs.iter().enumerate() {
            let (control, controllen) = match run.count {
                1 => (ptr::null_mut(), 0),
                _ => (controls.wrapping_add(k).cast(), size_of::<SegmentCmsg>()),
            };
            self.send_hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: names.wrapping_add(k),
                    namelen: size_of::<SockAddrIn>() as u32,
                    iov: iovs.wrapping_add(iov),
                    iovlen: run.count,
                    control,
                    controllen,
                    flags: 0,
                },
                len: 0,
            });
            iov += run.count;
        }
    }

    /// Sends every queued datagram with `sendmmsg`, [`SEND_BATCH`] runs at
    /// a time, and returns how many went out.
    fn send_queued(&mut self) -> io::Result<usize> {
        let fd = self.socket.as_raw_fd();
        // The first queued datagram not yet sent.
        let mut next = 0usize;
        while next < self.sendq.len() {
            self.build_send(next);
            let mut done = 0usize;
            while done < self.send_hdrs.len() {
                // SAFETY: hdrs[done..] are valid mmsghdrs whose name, iov
                // and control pointers reference live, correctly sized
                // storage owned by self for the whole call.
                let n = unsafe {
                    sendmmsg(
                        fd,
                        self.send_hdrs.as_mut_ptr().add(done),
                        (self.send_hdrs.len() - done) as u32,
                        0,
                    )
                };
                if n < 0 {
                    let e = io::Error::last_os_error();
                    if e.kind() == io::ErrorKind::Interrupted {
                        continue;
                    }
                    if self.runs[done].count > 1 && refused(&e) {
                        // Re-plan from the refused run on, unsegmented.
                        self.segmenting = false;
                        break;
                    }
                    return Err(e);
                }
                let n = n as usize;
                next += self.runs[done..done + n]
                    .iter()
                    .map(|run| run.count)
                    .sum::<usize>();
                done += n;
            }
        }
        Ok(next)
    }
}

impl SocketDriver for BatchUdpDriver {
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    fn push(&mut self, to: SocketAddr, payload: Vec<u8>) {
        match to {
            SocketAddr::V4(sa) => self.sendq.push((sa, payload)),
            // IPv6 destinations cannot come out of an IPv4-bound
            // socket anyway; keep the datagram and let submit()'s
            // plain send_to surface the OS error to the caller.
            SocketAddr::V6(_) => self
                .sendq
                .push((SocketAddrV4::new(Ipv4Addr::UNSPECIFIED, 0), payload)),
        }
    }

    fn pending(&self) -> usize {
        self.sendq.len()
    }

    fn submit(&mut self) -> io::Result<usize> {
        let sent = self.send_queued();
        // Sent or failed, the queue is spent; clearing it in place keeps
        // its capacity, so the next burst queues without regrowing it.
        self.sendq.clear();
        sent
    }

    fn complete(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Completion>,
    ) -> io::Result<usize> {
        let fd = self.socket.as_raw_fd();
        let flags = match timeout {
            Some(d) if !d.is_zero() => {
                self.want_read_timeout(Some(d))?;
                MSG_WAITFORONE
            }
            _ => MSG_DONTWAIT,
        };
        self.recv_names.clear();
        self.recv_iovs.clear();
        self.recv_hdrs.clear();
        for buf in &mut self.recv_bufs {
            self.recv_names.push(SockAddrIn::zeroed());
            self.recv_iovs.push(IoVec {
                base: buf.as_mut_ptr(),
                len: buf.len(),
            });
        }
        let names = self.recv_names.as_mut_ptr();
        let iovs = self.recv_iovs.as_mut_ptr();
        let controls = self.recv_controls.as_mut_ptr();
        for k in 0..RECV_BATCH {
            self.recv_hdrs.push(MMsgHdr {
                hdr: MsgHdr {
                    name: names.wrapping_add(k),
                    namelen: size_of::<SockAddrIn>() as u32,
                    iov: iovs.wrapping_add(k),
                    iovlen: 1,
                    control: controls.wrapping_add(k).cast(),
                    controllen: size_of::<RecvControl>(),
                    flags: 0,
                },
                len: 0,
            });
        }
        // SAFETY: hdrs reference RECV_BATCH live buffers of MAX_DATAGRAM
        // bytes each, with a name and a control buffer of the stated
        // sizes; null timeout defers blocking behaviour to SO_RCVTIMEO +
        // flags.
        let n = unsafe {
            recvmmsg(
                fd,
                self.recv_hdrs.as_mut_ptr(),
                RECV_BATCH as u32,
                flags,
                ptr::null_mut(),
            )
        };
        if n < 0 {
            let e = io::Error::last_os_error();
            if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        let before = out.len();
        for k in 0..n as usize {
            let MMsgHdr { hdr, len } = &self.recv_hdrs[k];
            let from = self.recv_names[k].to_socket_addr();
            let read = &self.recv_bufs[k][..(*len as usize).min(MAX_DATAGRAM)];
            match gro_segment(&self.recv_controls[k], hdr.controllen) {
                // A coalesced read: every segment but the last is full.
                Some(size) if size > 0 && read.len() > size => {
                    out.extend(read.chunks(size).map(|d| (from, d.to_vec())));
                }
                _ => out.push((from, read.to_vec())),
            }
        }
        Ok(out.len() - before)
    }

    fn name(&self) -> &'static str {
        if self.segmenting {
            "batch"
        } else {
            "batch-unsegmented"
        }
    }

    fn max_datagram(&self) -> usize {
        MAX_DATAGRAM
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopUdpDriver;
    use std::time::Instant;

    fn bind() -> UdpSocket {
        UdpSocket::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind loopback")
    }

    /// Datagram `k` of a burst tagged `tag`: `size` bytes, each distinct
    /// enough that a reordering or a misplaced cut shows.
    fn datagram(tag: u8, k: usize, size: usize) -> Vec<u8> {
        (0..size)
            .map(|i| tag ^ (k as u8).wrapping_mul(31) ^ (i as u8))
            .collect()
    }

    /// Reaps at `rx` until `want` datagrams arrived; their payloads, in
    /// arrival order, all from `from`.
    fn reap(rx: &mut dyn SocketDriver, from: SocketAddr, want: usize) -> Vec<Vec<u8>> {
        let mut got: Vec<Completion> = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while got.len() < want && Instant::now() < deadline {
            rx.complete(Some(Duration::from_millis(50)), &mut got)
                .expect("reap");
        }
        assert_eq!(got.len(), want, "every datagram arrived, once");
        assert!(got.iter().all(|(a, _)| *a == from), "sender address kept");
        got.into_iter().map(|(_, d)| d).collect()
    }

    /// Non-blocking reaps until one returns something (loopback delivery
    /// normally lands before `sendmmsg` returns; this only covers a
    /// deferred softirq), and that one reap's datagrams.
    fn first_reap(rx: &mut BatchUdpDriver) -> Vec<Completion> {
        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while rx.complete(None, &mut got).expect("reap") == 0 {
            assert!(Instant::now() < deadline, "nothing arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        got
    }

    #[test]
    fn runs_respect_destination_length_and_the_three_bounds() {
        let mut tx = BatchUdpDriver::new(bind()).expect("tx");
        let a = SocketAddr::from((Ipv4Addr::LOCALHOST, 9));
        let b = SocketAddr::from((Ipv4Addr::LOCALHOST, 10));
        let mut queue = |to, count, size| {
            for _ in 0..count {
                tx.push(to, vec![0; size]);
            }
        };
        queue(a, 3, 80);
        queue(b, 2, 80); // a destination switch
        queue(b, 2, 81); // a length change
        queue(b, 65, 10); // RUN_MAX, then one more
        queue(b, 50, 1_400); // the total bound: 46 fit in MAX_DATAGRAM
        queue(b, 2, SEGMENT_MAX + 1); // too large to coalesce
        queue(b, 2, 0); // empty: never coalesced
        let mut runs = Vec::new();
        let mut next = 0;
        while next < tx.pending() {
            runs.push(tx.run_len(next));
            next += runs.last().copied().unwrap_or(0);
        }
        assert_eq!(runs, [3, 2, 2, 64, 1, 46, 4, 1, 1, 1, 1]);
        tx.segmenting = false;
        assert_eq!(tx.run_len(0), 1, "unsegmented: every datagram alone");
    }

    /// 64 equal datagrams to one peer come back from one non-blocking
    /// reap: more than `RECV_BATCH` reads can hold, so only through GRO.
    #[test]
    fn a_burst_is_one_segmented_send_and_one_coalesced_read() {
        let mut tx = BatchUdpDriver::new(bind()).expect("tx");
        let mut rx = BatchUdpDriver::new(bind()).expect("rx");
        let (from, to) = (tx.local_addr().expect("tx"), rx.local_addr().expect("rx"));
        let burst: Vec<Vec<u8>> = (0..64).map(|k| datagram(1, k, 80)).collect();
        for d in &burst {
            tx.push(to, d.clone());
        }
        assert_eq!(tx.submit().expect("submit"), 64);
        let got = first_reap(&mut rx);
        const { assert!(RECV_BATCH < 64) };
        assert_eq!(got.len(), 64, "one reap, one coalesced read");
        assert!(got.iter().all(|(a, _)| *a == from));
        let got: Vec<Vec<u8>> = got.into_iter().map(|(_, d)| d).collect();
        assert_eq!(got, burst, "byte- and order-identical");
        assert_eq!(tx.name(), "batch");
    }

    /// A receiver without GRO gets the same burst as 64 datagrams.
    #[test]
    fn a_segmented_burst_reaches_a_plain_socket_as_datagrams() {
        let mut tx = BatchUdpDriver::new(bind()).expect("tx");
        let rx = bind();
        let to = rx.local_addr().expect("rx");
        let burst: Vec<Vec<u8>> = (0..64).map(|k| datagram(2, k, 80)).collect();
        for d in &burst {
            tx.push(to, d.clone());
        }
        assert_eq!(tx.submit().expect("submit"), 64);
        rx.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut buf = [0u8; 2048];
        for d in &burst {
            let n = rx.recv(&mut buf).expect("recv");
            assert_eq!(&buf[..n], &d[..]);
        }
    }

    /// A mixed queue arrives exactly as the portable driver delivers it.
    #[test]
    fn a_mixed_queue_round_trips_like_the_loop_driver() {
        let bursts: [&[(usize, usize, usize)]; 5] = [
            // (destination, count, size)
            &[(0, 5, 100), (1, 3, 100), (0, 4, 100)],
            &[(0, 5, 100), (0, 5, 120), (0, 1, 7)],
            &[(1, 3, SEGMENT_MAX + 1), (1, 2, SEGMENT_MAX)],
            &[(0, 65, 64), (0, 3, 0), (1, 1, 0)],
            &[(1, 50, 1_400)],
        ];
        let send = |tx: &mut dyn SocketDriver| {
            let mut rx = [
                BatchUdpDriver::new(bind()).expect("rx 0"),
                BatchUdpDriver::new(bind()).expect("rx 1"),
            ];
            let to = [0, 1].map(|i| rx[i].local_addr().expect("rx"));
            let from = tx.local_addr().expect("tx");
            let mut got: [Vec<Vec<u8>>; 2] = Default::default();
            for (tag, burst) in bursts.iter().enumerate() {
                let mut want = [0, 0];
                let mut k = 0;
                for &(i, count, size) in *burst {
                    for _ in 0..count {
                        tx.push(to[i], datagram(tag as u8, k, size));
                        k += 1;
                    }
                    want[i] += count;
                }
                assert_eq!(tx.submit().expect("submit"), k, "exact count");
                for i in 0..2 {
                    got[i].extend(reap(&mut rx[i], from, want[i]));
                }
            }
            got
        };
        let batched = send(&mut BatchUdpDriver::new(bind()).expect("batch tx"));
        let sequential = send(&mut LoopUdpDriver::new(bind()));
        assert_eq!(batched, sequential);
    }

    /// `SO_NO_CHECK` makes Linux refuse `UDP_SEGMENT` with `EINVAL`: the
    /// refused run goes out as datagrams, the count stays exact, and the
    /// driver says it no longer segments.
    #[test]
    fn a_refused_run_is_resent_unsegmented_from_then_on() {
        /// `SOL_SOCKET`, `SO_NO_CHECK`.
        const SOL_SOCKET: i32 = 1;
        const SO_NO_CHECK: i32 = 11;
        let socket = bind();
        set_int_option(&socket, SOL_SOCKET, SO_NO_CHECK, 1).expect("SO_NO_CHECK");
        let mut tx = BatchUdpDriver::new(socket).expect("tx");
        let mut rx = BatchUdpDriver::new(bind()).expect("rx");
        let (from, to) = (tx.local_addr().expect("tx"), rx.local_addr().expect("rx"));
        assert_eq!(tx.name(), "batch");
        for round in 0..2u8 {
            // One datagram ahead of the run, so the refusal comes after
            // part of the `sendmmsg` went out.
            let burst: Vec<Vec<u8>> = std::iter::once(datagram(round, 99, 5))
                .chain((0..64).map(|k| datagram(round, k, 80)))
                .collect();
            for d in &burst {
                tx.push(to, d.clone());
            }
            assert_eq!(tx.submit().expect("submit"), 65);
            assert_eq!(tx.name(), "batch-unsegmented");
            // Plain datagrams: no one read holds more than one.
            let first = first_reap(&mut rx);
            assert!(first.len() <= RECV_BATCH, "{} in one reap", first.len());
            let mut got: Vec<Vec<u8>> = first.into_iter().map(|(_, d)| d).collect();
            got.extend(reap(&mut rx, from, burst.len() - got.len()));
            assert_eq!(got, burst);
        }
    }

    /// A control buffer holding `messages`, each `(level, type, data)`,
    /// laid out as `CMSG_NXTHDR` walks them; and its length.
    fn control_of(messages: &[(i32, i32, &[u8])]) -> (RecvControl, usize) {
        let mut bytes = [0u8; size_of::<RecvControl>()];
        let mut at = 0;
        for (level, kind, data) in messages {
            let len = size_of::<CmsgHdr>() + data.len();
            bytes[at..at + 8].copy_from_slice(&len.to_ne_bytes());
            bytes[at + 8..at + 12].copy_from_slice(&level.to_ne_bytes());
            bytes[at + 12..at + 16].copy_from_slice(&kind.to_ne_bytes());
            bytes[at + 16..at + len].copy_from_slice(data);
            at += len.next_multiple_of(8);
        }
        let mut control: RecvControl = [0; 8];
        for (word, from) in control.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_ne_bytes(from.try_into().expect("8 bytes"));
        }
        (control, at)
    }

    #[test]
    fn gro_segment_reads_only_its_own_message() {
        assert_eq!(gro_segment(&[0; 8], 0), None);
        // A timestamp-like message (`SOL_SOCKET`, 16 data bytes) first.
        let gro = 80i32.to_ne_bytes();
        let (control, len) = control_of(&[(1, 29, &[0; 16]), (SOL_UDP, UDP_GRO, &gro)]);
        assert_eq!(len, 56);
        assert_eq!(gro_segment(&control, len), Some(80));
        assert_eq!(gro_segment(&control, 40), None, "truncated");
        let (control, len) = control_of(&[(SOL_UDP, UDP_SEGMENT, &gro)]);
        assert_eq!(gro_segment(&control, len), None, "another message");
        let mut bad = control;
        bad[0] = 8;
        assert_eq!(gro_segment(&bad, len), None, "malformed length");
    }
}
