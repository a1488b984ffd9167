//! # evs-core — extended virtual synchrony
//!
//! The primary contribution of *Extended Virtual Synchrony* (Moser, Amir,
//! Melliar-Smith, Agarwal; ICDCS 1994), reproduced as a Rust library: a
//! group-communication transport that "maintains a consistent relationship
//! between the delivery of messages and the delivery of configuration
//! changes across all processes in the system" under network partitioning
//! and remerging, and under process failure and recovery with stable
//! storage intact.
//!
//! ## What's here
//!
//! * [`EvsProcess`] — the per-process engine: regular and transitional
//!   configurations, the recovery algorithm of §3 (state exchange,
//!   rebroadcast, obligation sets, the atomic Step 6), on top of the
//!   membership (`evs-membership`) and token-ring ordering (`evs-order`)
//!   layers.
//! * [`EvsCluster`] — a whole group under the deterministic simulator, the
//!   one-stop harness for scenarios, tests and benchmarks.
//! * [`checker`] — the machine-checkable form of the paper's model:
//!   Specifications 1.1–7.2 (§2.1) and the primary-component properties
//!   (§2.2), verified against execution [`Trace`]s.
//! * [`recovery`] — the pure logic of recovery Steps 3–6, unit-testable in
//!   isolation.
//! * [`persist`] — the write-ahead-log record set mapping §2's "recover
//!   with stable storage intact" onto `evs-store`, and the replay fold
//!   that rebuilds a killed process's state from it.
//!
//! ## Quick example
//!
//! ```
//! use evs_core::{EvsCluster, Service};
//! use evs_sim::ProcessId;
//!
//! // Three processes converge into one configuration...
//! let mut cluster = EvsCluster::<&str>::builder(3).build();
//! assert!(cluster.run_until_settled(200_000));
//!
//! // ...exchange a safe message...
//! cluster.submit(ProcessId::new(0), Service::Safe, "paper");
//! cluster.run_for(5_000);
//!
//! // ...and the whole run satisfies the EVS specifications.
//! evs_core::checker::check_all(&cluster.trace()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod checker;
mod cluster;
mod config;
mod engine;
mod event;
mod params;
mod payload;
pub mod persist;
pub mod recovery;
pub mod trace_io;
pub mod wire;

pub use cluster::{EvsCluster, EvsClusterBuilder};
pub use config::{Configuration, ConfigurationKind};
pub use engine::{CorruptionKind, EngineObs, EvsMsg, EvsProcess};
pub use event::{Delivery, EvsEvent, Trace};
pub use params::EvsParams;
pub use payload::Payload;

// Re-export the identifiers applications see in the API.
pub use evs_membership::ConfigId;
pub use evs_order::{MessageId, Service};
