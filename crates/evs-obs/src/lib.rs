//! The live observability plane of the EVS stack.
//!
//! Everything the workspace could observe before this crate was
//! post-mortem: flight-recorder dumps merged by `evs-inspect` after a
//! run ends. `evs-obs` makes a *running* cluster observable:
//!
//! * [`serve`] — the single-datagram `OBS?` scrape protocol: a process
//!   answers a 4-byte query on a UDP socket it already owns (or on an
//!   [`ObsResponder`] sidecar thread) with one datagram: the text of an
//!   [`evs_telemetry::Exposition`], the workspace's one metrics document
//!   (counters, gauges, log-histogram quantiles, phase-time fractions,
//!   free-form info keys), whose monotonic sequence number lets scrapers
//!   compute rates from deltas.
//! * [`TopState`] — the `evs-top` dashboard model: it records scrapes
//!   per endpoint, detects kill/respawn incarnations from sequence
//!   regressions, and renders a refreshing terminal table of per-node
//!   rotation/delivery/retransmission rates, WAL sync latency,
//!   backpressure and chaos-campaign progress.
//!
//! Like `evs-telemetry` below it, the crate is dependency-free (std
//! only) so every process of the stack — sim workers, UDP daemons,
//! brokers, chaos campaigns — can embed it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod serve;
mod top;

pub use serve::{is_query, scrape, ObsResponder, OBS_MAGIC};
pub use top::{NodeState, Sample, TopState};
