//! The in-memory medium: a [`SocketDriver`] over a shared [`Hub`] of
//! per-address inboxes — the UDP drivers' push / submit / complete surface
//! with no kernel and no datagram size limit. Sending to an address nobody
//! holds drops the datagram, as UDP to a closed port does.

use evs_net::{Completion, SocketDriver, RECV_BATCH};
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// A queue is valid after every push and drain, and nothing else happens
/// under these locks.
const POISON: &str = "no thread panics holding a hub lock";

type Inbox = Arc<(Mutex<VecDeque<Completion>>, Condvar)>;

/// The medium: one inbox per bound address. Share it as `Arc<Hub>`.
#[derive(Default)]
pub struct Hub(RwLock<BTreeMap<SocketAddr, Inbox>>);

/// One bound address of a [`Hub`].
pub struct MemDriver {
    hub: Arc<Hub>,
    addr: SocketAddr,
    inbox: Inbox,
    sendq: Vec<(SocketAddr, Vec<u8>)>,
}

impl MemDriver {
    /// Binds `addr` on `hub`, replacing whoever held it before.
    pub fn bind(hub: &Arc<Hub>, addr: SocketAddr) -> MemDriver {
        let inbox = Inbox::default();
        let held = Arc::clone(&inbox);
        hub.0.write().expect(POISON).insert(addr, held);
        MemDriver {
            hub: Arc::clone(hub),
            addr,
            inbox,
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
        let sent = self.sendq.len();
        let inboxes = self.hub.0.read().expect(POISON);
        for (to, payload) in self.sendq.drain(..) {
            if let Some(inbox) = inboxes.get(&to) {
                inbox
                    .0
                    .lock()
                    .expect(POISON)
                    .push_back((self.addr, payload));
                inbox.1.notify_one();
            }
        }
        Ok(sent)
    }

    fn complete(
        &mut self,
        timeout: Option<Duration>,
        out: &mut Vec<Completion>,
    ) -> io::Result<usize> {
        let (queue, mail) = &*self.inbox;
        let mut queue = queue.lock().expect(POISON);
        if let Some(wait) = timeout {
            // Park: a spurious wake re-waits for what is left of `wait`.
            let deadline = Instant::now() + wait;
            while queue.is_empty() {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                queue = mail.wait_timeout(queue, left).expect(POISON).0;
            }
        }
        let n = queue.len().min(RECV_BATCH);
        out.extend(queue.drain(..n));
        Ok(n)
    }

    fn name(&self) -> &'static str {
        "mem"
    }
}
