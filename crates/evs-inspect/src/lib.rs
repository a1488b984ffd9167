//! Run analysis for the EVS reproduction: cross-process trace
//! correlation, lifecycle spans and anomaly detection.
//!
//! Every process in a run — simulated, live (`evs-runtime`), or driven by a
//! chaos campaign — writes the paper's §2 events (send, deliver,
//! deliver_conf, fail) into its `evs_core::Trace`, and carries a bounded
//! flight recorder of the structured
//! [`TelemetryEvent`](evs_telemetry::TelemetryEvent)s around them (token
//! ring, membership, recovery steps, originations). This crate reads a
//! run's trace beside those per-process dumps and turns them into
//! something a human can read:
//!
//! * [`Timeline`] — the dumps merged into one causally-ordered global
//!   view, keyed by tick / process / local order, deterministic in the
//!   ingestion order of the dumps.
//! * [`MessageSpan`] — per-message lifecycle: originate → `send_p(m)`,
//!   the token stamp → first delivery → last delivery, in ticks and token
//!   rotations.
//! * [`ConfigSpan`] — per-configuration-change lifecycle: membership
//!   commit → the recovery algorithm of §3 (Steps 2–6, with the paper's
//!   step names, entered/reached/exited per process) → install →
//!   transitional and regular `deliver_conf_p(c)`.
//! * [`Anomaly`] — symptoms worth a look even when no specification is
//!   violated: stuck recovery, token starvation, hole-request storms,
//!   obligation-set growth, messages that never complete their lifecycle.
//!
//! [`InspectReport::analyze`] runs the whole pipeline;
//! [`check_all_with_telemetry`] runs the conformance checker and attaches
//! its text rendering to every violation report, and the examples print it
//! at end of run.
//!
//! The crate sits above the protocol: it depends on `evs-core` (the trace
//! and its checker) and `evs-telemetry` (the dumps), and no protocol crate
//! depends on it. It has no file format of its own. A run's post-mortem
//! is one `evs_core::trace_io` document, whose `process` sections carry
//! the trace events and the flight dump alike;
//! `trace_io::parse_postmortem` returns exactly the `(trace, dumps)`
//! pair [`InspectReport::analyze`] takes, so a multi-OS-process run
//! (`examples/udp_cluster.rs`, each member appending its dump to its own
//! trace journal) can be analyzed long after its processes exited.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod check;
pub mod report;
pub mod spans;
pub mod timeline;

pub use anomaly::{Anomaly, AnomalyConfig, ANOMALY_KINDS};
pub use check::{assert_evs_with_telemetry, check_all_with_telemetry, CheckFailure};
pub use report::InspectReport;
pub use spans::{step_name, ConfigSpan, MessageSpan, StepSpan};
pub use timeline::{collect_dumps, Timeline, TimelineEntry};
