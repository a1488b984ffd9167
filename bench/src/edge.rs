//! The reactor's edges: the timing shims around `SocketDriver` and
//! `Storage`, and the in-memory transport.

use crate::trace::{self, count, span, sys_span, Sp, METERS};
use evs_net::{Completion, SocketDriver, RECV_BATCH};
use evs_store::{Replay, Storage, RECORD_HEADER};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Times and counts every call into the driver it wraps. A layer is a
/// module: only an `evs_net` driver counts as the `net` layer, while the
/// in-memory medium is the harness's own code and is booked to `reactor`.
pub struct TimedDriver {
    inner: Box<dyn SocketDriver>,
    /// An `evs_net` driver: its calls enter the kernel, their time is
    /// `T_sys`, and they are what the `net.*` counters count.
    kernel: bool,
    /// The socket belongs to a group member (its bytes are `wire_b_per_op`).
    member: bool,
}

impl TimedDriver {
    pub fn boxed(
        inner: Box<dyn SocketDriver>,
        kernel: bool,
        member: bool,
    ) -> Box<dyn SocketDriver> {
        Box::new(TimedDriver {
            inner,
            kernel,
            member,
        })
    }
}

impl SocketDriver for TimedDriver {
    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn push(&mut self, to: SocketAddr, payload: Vec<u8>) {
        if self.kernel {
            count(&METERS.datagrams, 1);
            count(&METERS.datagram_bytes, payload.len() as u64);
        }
        if self.member {
            count(&METERS.wire_bytes, payload.len() as u64);
        }
        self.inner.push(to, payload);
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn submit(&mut self) -> io::Result<usize> {
        if !self.kernel {
            return span(Sp::MemSubmit, || self.inner.submit());
        }
        count(&METERS.net_submits, 1);
        sys_span(Sp::NetSubmit, true, || self.inner.submit())
    }

    fn complete(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Completion>,
    ) -> io::Result<usize> {
        if !self.kernel {
            return span(Sp::MemComplete, || self.inner.complete(timeout, out));
        }
        count(&METERS.net_completes, 1);
        let reaped = sys_span(Sp::NetComplete, true, || self.inner.complete(timeout, out))?;
        if reaped == 0 {
            count(&METERS.net_empty_completes, 1);
        }
        Ok(reaped)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The medium of the in-memory transport: one inbox per bound address.
/// Sending to an address nobody holds drops the datagram, as UDP to a
/// closed port does.
#[derive(Default)]
pub struct Hub {
    inboxes: BTreeMap<SocketAddr, VecDeque<Completion>>,
}

impl Hub {
    /// Closes `addr`, discarding what was queued for it.
    pub fn close(&mut self, addr: SocketAddr) {
        self.inboxes.remove(&addr);
    }

    pub fn has_mail(&self) -> bool {
        self.inboxes.values().any(|q| !q.is_empty())
    }
}

/// A `SocketDriver` over a [`Hub`]: same push / submit / complete surface,
/// no kernel. Used where the workload is about the protocol's own work, and
/// where recovery frames outgrow a UDP datagram.
pub struct MemDriver {
    hub: Arc<Mutex<Hub>>,
    addr: SocketAddr,
    sendq: Vec<(SocketAddr, Vec<u8>)>,
}

impl MemDriver {
    pub fn bind(hub: &Arc<Mutex<Hub>>, addr: SocketAddr) -> MemDriver {
        hub.lock()
            .expect("hub lock: no thread panics holding it")
            .inboxes
            .insert(addr, VecDeque::new());
        MemDriver {
            hub: Arc::clone(hub),
            addr,
            sendq: Vec::new(),
        }
    }
}

impl SocketDriver for MemDriver {
    fn local_addr(&self) -> io::Result<SocketAddr> {
        Ok(self.addr)
    }

    fn push(&mut self, to: SocketAddr, payload: Vec<u8>) {
        self.sendq.push((to, payload));
    }

    fn pending(&self) -> usize {
        self.sendq.len()
    }

    fn submit(&mut self) -> io::Result<usize> {
        let mut hub = self.hub.lock().expect("hub lock");
        let sent = self.sendq.len();
        for (to, payload) in self.sendq.drain(..) {
            if let Some(inbox) = hub.inboxes.get_mut(&to) {
                inbox.push_back((self.addr, payload));
            }
        }
        Ok(sent)
    }

    fn complete(
        &mut self,
        _timeout: Option<Duration>,
        out: &mut Vec<Completion>,
    ) -> io::Result<usize> {
        let mut hub = self.hub.lock().expect("hub lock");
        let Some(inbox) = hub.inboxes.get_mut(&self.addr) else {
            return Ok(0);
        };
        let n = inbox.len().min(RECV_BATCH);
        out.extend(inbox.drain(..n));
        Ok(n)
    }

    fn name(&self) -> &'static str {
        "mem"
    }
}

/// Times and counts every call into the storage it wraps, and tracks how
/// many bytes were appended since the last `sync` so a kill can discard
/// exactly the tail the operating system would have been free to lose.
pub struct TimedStorage {
    inner: Box<dyn Storage>,
    kernel: bool,
    unsynced: Arc<AtomicU64>,
}

impl TimedStorage {
    /// Wraps `inner`; `unsynced` is shared with the reactor's kill path.
    pub fn boxed(
        inner: Box<dyn Storage>,
        kernel: bool,
        unsynced: Arc<AtomicU64>,
    ) -> Box<dyn Storage> {
        Box::new(TimedStorage {
            inner,
            kernel,
            unsynced,
        })
    }
}

impl Storage for TimedStorage {
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let framed = (RECORD_HEADER + record.len()) as u64;
        count(&METERS.store_appends, 1);
        count(&METERS.store_bytes, framed);
        self.unsynced.fetch_add(framed, Relaxed);
        sys_span(Sp::StoreAppend, self.kernel, || self.inner.append(record))
    }

    fn sync(&mut self) -> io::Result<()> {
        count(&METERS.store_syncs, 1);
        self.unsynced.store(0, Relaxed);
        sys_span(Sp::StoreSync, self.kernel, || self.inner.sync())
    }

    fn snapshot(&mut self, state: &[u8]) -> io::Result<()> {
        // A snapshot is written, synced and renamed before the old segments
        // go, so nothing unsynced is left behind it.
        self.unsynced.store(0, Relaxed);
        sys_span(Sp::StoreSnapshot, self.kernel, || {
            self.inner.snapshot(state)
        })
    }

    fn replay(&mut self) -> io::Result<Replay> {
        let t0 = trace::now_ns();
        let replay = sys_span(Sp::StoreReplay, self.kernel, || self.inner.replay());
        count(&METERS.store_replay_ns, trace::now_ns() - t0);
        replay
    }
}

/// Removes the last `bytes` bytes of the write-ahead log in `dir`: what a
/// machine is allowed to lose when a process dies before its next `sync`.
/// `FileStorage` frames each record as header + payload in `wal-<seq>.log`
/// segments, so the tail is cut from the highest segment downwards.
pub fn discard_unsynced_tail(dir: &Path, mut bytes: u64) -> io::Result<()> {
    let mut segments: Vec<(u64, std::path::PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let seq = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("wal-"))
            .and_then(|n| n.strip_suffix(".log"))
            .and_then(|n| n.parse::<u64>().ok());
        if let Some(seq) = seq {
            segments.push((seq, path));
        }
    }
    segments.sort_unstable();
    for (_, path) in segments.into_iter().rev() {
        if bytes == 0 {
            break;
        }
        let len = std::fs::metadata(&path)?.len();
        if bytes >= len {
            std::fs::remove_file(&path)?;
            bytes -= len;
        } else {
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(len - bytes)?;
            bytes = 0;
        }
    }
    Ok(())
}
