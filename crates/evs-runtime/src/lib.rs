//! # evs-runtime — the one live worker loop
//!
//! The protocol stack is sans-I/O: an [`EvsProcess`](evs_core::EvsProcess)
//! only ever sees messages, timers and a clock. [`evs_sim::Sim`] drives it
//! from a deterministic event queue; this crate is the other driver — the
//! only code outside the simulator (and the frozen `bench/` reactor) that
//! maps an engine's effects onto a transport. The chaos harness's live
//! path, the integration tests' live clusters and every mode of
//! `examples/udp_cluster.rs` run it:
//!
//! * [`Worker`] — one member, single-threaded and clock-free, over any
//!   [`SocketDriver`](evs_net::SocketDriver);
//! * [`MemDriver`] over a shared [`Hub`] — the in-memory medium;
//! * [`FaultyDriver`] / [`Faults`] / [`LinkFault`] — partitions and link
//!   faults as a decorator over any driver;
//! * [`Cluster`] — thread-per-node over `Worker::step` on the wall clock,
//!   collecting the same traces as the simulator, so the specification
//!   checkers run unchanged on live runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod fault;
mod mem;
mod worker;

pub use cluster::{Cluster, WAKE_MAGIC};
pub use fault::{Faults, FaultyDriver, LinkFault};
pub use mem::{Hub, MemDriver};
pub use worker::{Ectx, ProcessTrace, Worker};

use std::time::{Duration, Instant};

/// One protocol tick of wall-clock time on a live worker.
pub const TICK: Duration = Duration::from_micros(200);

/// Upper bound on one park of a [`Cluster`] thread. The engine keeps a
/// deadline armed, so this is a backstop against a missed one — never the
/// pacing mechanism; `park_backstop_fired` counts every time it was.
pub const MAX_PARK: Duration = Duration::from_millis(50);

/// Whole [`TICK`]s of wall-clock time since `epoch`.
pub fn ticks_since(epoch: Instant) -> u64 {
    (epoch.elapsed().as_micros() / TICK.as_micros()) as u64
}
