//! `evs-top`: a refreshing terminal dashboard over the `OBS?` scrape
//! plane.
//!
//! ```text
//! cargo run --example evs_top -- [addr ...] [options]
//!
//!   --interval <ms>     poll period (default 1000)
//!   --frames <n>        render n frames then exit (default: run forever)
//!   --endpoints <file>  endpoints file to read when no addrs are given
//!                       (default chaos-artifacts/obs-endpoints.txt)
//! ```
//!
//! Each frame scrapes every endpoint and renders one table: per-node
//! rotation/delivery/retransmission rates (from counter deltas between
//! polls), WAL sync p99, backpressure, ARU lag and parked share, plus a
//! chaos-campaign progress line when a scraped process carries the
//! campaign gauges. Nodes that stop answering show their failure count;
//! a respawned process (sequence regression or changed OS pid) steps
//! its INC column and restarts its rate baseline — so a `kill -9` and
//! the recovery that follows are both visible live.
//!
//! Pair it with a scrape-able cluster:
//!
//! ```text
//! cargo run --release --example udp_cluster -- --serve 60   # shell 1
//! cargo run --release --example evs_top                     # shell 2
//! ```

use evs::obs::{self, TopState};
use std::io::{IsTerminal as _, Write as _};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: evs_top [addr ...] [--interval ms] [--frames n] [--endpoints file]\n\
         with no addrs, endpoints are read from chaos-artifacts/obs-endpoints.txt\n\
         (written by `udp_cluster --serve` and `udp_cluster --orchestrate`)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut interval = Duration::from_millis(1000);
    let mut frames: Option<u64> = None;
    let mut endpoints_file = PathBuf::from("chaos-artifacts/obs-endpoints.txt");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => interval = Duration::from_millis(ms),
                None => usage(),
            },
            "--frames" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => frames = Some(n),
                None => usage(),
            },
            "--endpoints" => match it.next() {
                Some(f) => endpoints_file = PathBuf::from(f),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            a => match a.parse() {
                Ok(addr) => addrs.push(addr),
                Err(e) => {
                    eprintln!("bad address {a:?}: {e}\n");
                    usage();
                }
            },
        }
    }
    if addrs.is_empty() {
        addrs = match obs::serve::read_endpoints(&endpoints_file) {
            Ok(a) if !a.is_empty() => a,
            Ok(_) => {
                eprintln!("{}: no endpoints\n", endpoints_file.display());
                usage();
            }
            Err(e) => {
                eprintln!("read {}: {e}\n", endpoints_file.display());
                usage();
            }
        };
    }

    // Only redraw in place on a real terminal; in a pipe (CI logs) the
    // frames append so nothing is lost to cursor control codes.
    let redraw = std::io::stdout().is_terminal();
    let epoch = Instant::now();
    let mut top = TopState::new();
    let mut rendered = 0u64;
    loop {
        for a in &addrs {
            match obs::scrape(*a, Duration::from_millis(300)) {
                Ok(expo) => top.record(&a.to_string(), epoch.elapsed().as_micros() as u64, expo),
                Err(_) => top.record_failure(&a.to_string()),
            }
        }
        let frame = top.render(epoch.elapsed().as_micros() as u64);
        if redraw {
            print!("\x1b[2J\x1b[H{frame}");
        } else {
            println!("{frame}");
        }
        let _ = std::io::stdout().flush();
        rendered += 1;
        if let Some(n) = frames {
            if rendered >= n {
                return;
            }
        }
        std::thread::sleep(interval);
    }
}
