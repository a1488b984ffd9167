//! # evs-broker — the client-session front-end
//!
//! The paper's motivating applications (§1: airline reservation, ATM,
//! sensor fusion) serve vast client populations that never join the ring.
//! This crate is that tier: **brokers** sit between clients and a small
//! EVS daemon group, so "millions of users" enters the system as a
//! handful of ordered batches instead of millions of protocol-level
//! submits.
//!
//! The pipeline, end to end:
//!
//! 1. **Sessions** ([`Session`]) — each client connects to one broker,
//!    which stamps its ops with dense per-client sequence numbers and
//!    counts the unacked numbers in a bounded in-flight window. Full
//!    window ⇒ [`SubmitOutcome::Backpressure`], never unbounded buffering.
//! 2. **Prepare-batch** ([`Broker`]) — each accepted op is copied once,
//!    into the open batch frame ([`proto`]), which flushes at a size
//!    bound (sharing [`EvsParams::max_datagram_bytes`] with the live
//!    driver's ring packing) or a latency bound as **one** batched
//!    multicast submitted to the attached daemon under the agreed (or
//!    safe) service, and is kept until seen delivered.
//! 3. **Apply + dedup** ([`OpLedger`]) — every daemon applies each
//!    delivered batch entry exactly once per `(client, seq)`; the ledger
//!    is what makes broker reconnects *redelivery-safe*.
//! 4. **Replies** — the broker watches deliveries at its attached daemon
//!    and routes one [`Reply`] per op back to its session. On daemon
//!    loss it reattaches to a survivor, resubmits everything unacked,
//!    and the ledgers silently discard the overlap.
//!
//! [`BrokerCluster`] runs the whole path over the deterministic
//! simulator — the harness the chaos broker campaigns (`evs-chaos`) and
//! the dedup proptests drive. The live UDP path in
//! `examples/udp_cluster.rs` feeds the same [`Broker`] from real sockets.
//!
//! [`EvsParams::max_datagram_bytes`]: evs_core::EvsParams

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod broker;
mod clientmap;
mod driver;
mod ledger;
pub mod proto;
mod seqset;
mod session;

pub use broker::{Broker, BrokerParams, Reply};
pub use driver::{BrokerCluster, BrokerClusterConfig, RoutedReply};
pub use ledger::OpLedger;
pub use session::{Session, SubmitOutcome};
