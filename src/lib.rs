//! # evs — Extended Virtual Synchrony
//!
//! Facade crate for the reproduction of *Extended Virtual Synchrony*
//! (Moser, Amir, Melliar-Smith, Agarwal; ICDCS 1994). It re-exports the
//! workspace crates under one roof:
//!
//! * [`sim`] — deterministic discrete-event network substrate (partitions,
//!   merges, message loss, crash/recovery with stable storage).
//! * [`order`] — Totem-style token-ring total ordering substrate.
//! * [`membership`] — low-level membership algorithm (failure detection and
//!   configuration agreement).
//! * [`core`] — the paper's contribution: the EVS engine (regular and
//!   transitional configurations, the recovery algorithm, obligation sets)
//!   and the machine-checkable specification suite (Specs 1–7).
//! * [`vs`] — the primary-component algorithm and the filter that reduces
//!   extended virtual synchrony to Isis-style virtual synchrony (§5).
//! * [`store`] — durable stable storage: a CRC-checked write-ahead log
//!   with snapshot compaction behind the `Storage` trait, the §2 "recover
//!   with stable storage intact" made literal (see the "Durability"
//!   section of `README.md`).
//! * [`telemetry`] — metrics, structured tracing and the per-process
//!   flight recorder wired through every layer above, and the one
//!   snapshot document, the text exposition (see the "Observability"
//!   section of `README.md`).
//! * [`obs`] — the live observability plane on top of [`telemetry`]:
//!   the single-datagram `OBS?` scrape protocol that answers with an
//!   exposition, and the `evs-top` dashboard model.
//! * [`inspect`] — run analysis over a trace and the flight recorders: the merged
//!   causal timeline, per-message and per-configuration lifecycle spans,
//!   and anomaly detection (stuck recovery, token starvation, ...).
//! * [`chaos`] — deterministic fault injection: the fault-plan DSL,
//!   seeded scenario search, conformance-checked orchestration, and
//!   counterexample shrinking (see the "Chaos testing" section of
//!   `README.md`).
//! * [`net`] — kernel-batched UDP socket drivers behind the
//!   io_uring-shaped `SocketDriver` trait: one `sendmmsg`/`recvmmsg`
//!   syscall per batch on Linux, with a same-destination run of
//!   datagrams as one `UDP_SEGMENT` send and one `UDP_GRO` read, and a
//!   byte-for-byte-equivalent portable fallback elsewhere (see the
//!   "Performance" section of `README.md`).
//! * [`runtime`] — the one live worker loop: a clock-free `Worker` over a
//!   `SocketDriver`, the in-memory medium, link faults as a driver
//!   decorator, and the thread-per-node `Cluster` the live tests, the
//!   chaos harness and `examples/udp_cluster.rs` all run.
//! * [`broker`] — the client-session front-end: sessions with bounded
//!   windows and backpressure, the prepare-batch pipeline turning
//!   thousands of client ops into one batched multicast, redelivery-safe
//!   dedup ledgers, and per-client reply routing (see the "Serving
//!   clients" section of `README.md`).
//!
//! See the repository's `README.md` for a guided tour, `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use evs::prelude::*;
//!
//! // Build a five-process group; every process runs the full EVS stack.
//! let mut cluster = EvsCluster::<Vec<u8>>::builder(5).build();
//! cluster.run_until_settled(200_000);
//!
//! // P0 multicasts a safe message to the group.
//! cluster.submit(ProcessId::new(0), Service::Safe, b"hello".to_vec());
//! cluster.run_for(5_000);
//!
//! // Every process delivered it in the same total order, and the run
//! // satisfies the paper's specifications.
//! let trace = cluster.trace();
//! evs::core::checker::check_all(&trace).expect("EVS specifications hold");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use evs_broker as broker;
pub use evs_chaos as chaos;
pub use evs_core as core;
pub use evs_inspect as inspect;
pub use evs_membership as membership;
pub use evs_net as net;
pub use evs_obs as obs;
pub use evs_order as order;
pub use evs_runtime as runtime;
pub use evs_sim as sim;
pub use evs_store as store;
pub use evs_telemetry as telemetry;
pub use evs_vs as vs;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use evs_broker::{Broker, BrokerCluster, BrokerClusterConfig, BrokerParams};
    pub use evs_chaos::{FaultPlan, FaultStep, Orchestrator, ScenarioGen};
    pub use evs_core::{
        ConfigId, Configuration, ConfigurationKind, Delivery, EvsCluster, MessageId, Service,
    };
    pub use evs_sim::{ProcessId, SimTime};
}
