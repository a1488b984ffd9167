//! The `OBS?` scrape protocol: a single-datagram query answered with a
//! single-datagram text exposition.
//!
//! Processes that already run a UDP socket loop (the `udp_cluster`
//! workers, the broker front-end) answer queries inline — they call
//! [`is_query`] on each received datagram next to their existing
//! control-magic check and reply with `Exposition::to_text()`.
//! Processes without a socket of their own (chaos campaigns, sim
//! drivers) spawn an [`ObsResponder`] sidecar thread instead.
//!
//! Scrapers use [`scrape`]: one ephemeral socket, one query, one reply,
//! parsed and returned. Everything is loopback-UDP-sized: an exposition
//! for a fully-instrumented daemon is a few KB, far under the 64 KB
//! datagram ceiling [`scrape`] receives into.

use evs_telemetry::Exposition;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The 4-byte scrape query datagram.
pub const OBS_MAGIC: &[u8; 4] = b"OBS?";

/// True when `buf` is an `OBS?` scrape query.
pub fn is_query(buf: &[u8]) -> bool {
    buf.len() >= OBS_MAGIC.len() && &buf[..OBS_MAGIC.len()] == OBS_MAGIC
}

/// Scrapes one exposition from the process listening at `addr`.
///
/// Binds an ephemeral loopback socket, sends the query, waits up to
/// `timeout` for the reply and parses it. Parse failures surface as
/// [`io::ErrorKind::InvalidData`].
pub fn scrape(addr: SocketAddr, timeout: Duration) -> io::Result<Exposition> {
    let socket = UdpSocket::bind(("127.0.0.1", 0))?;
    socket.set_read_timeout(Some(timeout))?;
    socket.send_to(OBS_MAGIC, addr)?;
    let mut buf = vec![0u8; 64 * 1024];
    // Another process may race datagrams onto this ephemeral port;
    // ignore anything not from the scraped address.
    loop {
        let (len, from) = socket.recv_from(&mut buf)?;
        if from != addr {
            continue;
        }
        let text = std::str::from_utf8(&buf[..len])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        return Exposition::parse(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
    }
}

/// A sidecar thread answering `OBS?` queries for a process that has no
/// UDP loop of its own. Stops (and joins) on drop.
#[derive(Debug)]
pub struct ObsResponder {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl ObsResponder {
    /// Binds a loopback socket and spawns the responder thread.
    ///
    /// Every reply snapshots `telemetry` with a freshly-incremented
    /// sequence number and the info keys produced by `info()` at scrape
    /// time (so values like campaign progress stay current).
    pub fn spawn(
        telemetry: evs_telemetry::Telemetry,
        info: impl Fn() -> Vec<(String, String)> + Send + 'static,
    ) -> io::Result<ObsResponder> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let addr = socket.local_addr()?;
        socket.set_read_timeout(Some(Duration::from_millis(50)))?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = thread::Builder::new()
            .name("evs-obs-responder".to_string())
            .spawn(move || {
                let seq = AtomicU64::new(0);
                let mut buf = [0u8; 512];
                while !stop_flag.load(Ordering::Relaxed) {
                    match socket.recv_from(&mut buf) {
                        Ok((len, from)) if is_query(&buf[..len]) => {
                            let n = seq.fetch_add(1, Ordering::Relaxed) + 1;
                            if let Some(expo) = Exposition::from_telemetry(n, &telemetry, info()) {
                                let _ = socket.send_to(expo.to_text().as_bytes(), from);
                            }
                        }
                        Ok(_) => {}
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut => {}
                        Err(_) => break,
                    }
                }
            })?;
        Ok(ObsResponder {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The address scrapers should query.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsResponder {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Writes a scrape-endpoints file: one `host:port` per line. `evs-top`
/// discovers a cluster from this when it isn't handed addresses on the
/// command line.
pub fn write_endpoints(path: &Path, addrs: &[SocketAddr]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut text = String::new();
    for a in addrs {
        text.push_str(&a.to_string());
        text.push('\n');
    }
    std::fs::write(path, text)
}

/// Reads a scrape-endpoints file written by [`write_endpoints`].
pub fn read_endpoints(path: &Path) -> io::Result<Vec<SocketAddr>> {
    let text = std::fs::read_to_string(path)?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.trim()
                .parse()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{l:?}: {e}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs_telemetry::{names, Telemetry};

    #[test]
    fn query_detection() {
        assert!(is_query(b"OBS?"));
        assert!(is_query(b"OBS?x"));
        assert!(!is_query(b"OBS"));
        assert!(!is_query(b"EVSC"));
        assert!(!is_query(b""));
    }

    #[test]
    fn responder_answers_scrapes_with_advancing_seqs() {
        let t = Telemetry::enabled(7);
        t.counter(names::MESSAGES_SENT).add(5);
        let responder =
            ObsResponder::spawn(t.clone(), || vec![("role".to_string(), "test".to_string())])
                .unwrap();
        let first = scrape(responder.addr(), Duration::from_secs(2)).unwrap();
        t.counter(names::MESSAGES_SENT).add(3);
        let second = scrape(responder.addr(), Duration::from_secs(2)).unwrap();
        assert_eq!(first.pid, 7);
        assert_eq!(first.info["role"], "test");
        assert!(second.seq > first.seq);
        assert_eq!(first.counters[names::MESSAGES_SENT], 5);
        assert_eq!(second.counters[names::MESSAGES_SENT], 8);
    }

    #[test]
    fn scrape_times_out_against_a_dead_port() {
        let dead = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let addr = dead.local_addr().unwrap();
        drop(dead);
        let err = scrape(addr, Duration::from_millis(100)).unwrap_err();
        assert!(
            err.kind() == io::ErrorKind::WouldBlock
                || err.kind() == io::ErrorKind::TimedOut
                || err.kind() == io::ErrorKind::ConnectionRefused
        );
    }

    #[test]
    fn endpoints_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("evs-obs-test-{}", std::process::id()));
        let path = dir.join("endpoints.txt");
        let addrs: Vec<SocketAddr> = vec![
            "127.0.0.1:9001".parse().unwrap(),
            "127.0.0.1:9002".parse().unwrap(),
        ];
        write_endpoints(&path, &addrs).unwrap();
        assert_eq!(read_endpoints(&path).unwrap(), addrs);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
