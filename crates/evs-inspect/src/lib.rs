//! Run analysis for the EVS reproduction: cross-process trace
//! correlation, lifecycle spans and anomaly detection.
//!
//! Every process in a run — simulated, live (`evs-runtime`), or driven by a
//! chaos campaign — carries a bounded flight recorder of structured
//! [`TelemetryEvent`](evs_telemetry::TelemetryEvent)s. This crate ingests
//! those per-process dumps and turns them into something a human can
//! read:
//!
//! * [`Timeline`] — the dumps merged into one causally-ordered global
//!   view, keyed by tick / process / local order, deterministic in the
//!   ingestion order of the dumps.
//! * [`MessageSpan`] — per-message lifecycle: originate → token stamp
//!   (the paper's `ord` assignment) → first delivery → last delivery, in
//!   ticks and token rotations.
//! * [`ConfigSpan`] — per-configuration-change lifecycle: membership
//!   commit → the recovery algorithm of §3 (Steps 2–6, with the paper's
//!   step names, entered/reached/exited per process) → install →
//!   transitional and regular `deliver_conf`.
//! * [`Anomaly`] — symptoms worth a look even when no specification is
//!   violated: stuck recovery, token starvation, hole-request storms,
//!   obligation-set growth, messages that never complete their lifecycle.
//!
//! [`InspectReport::analyze`] runs the whole pipeline; the conformance
//! checker attaches its text rendering to every violation report, and the
//! examples print it at end of run. [`SpanReport`] is the JSON-stable
//! subset (spans + anomalies) that survives a round-trip through
//! [`SpanReport::to_json`] / [`SpanReport::from_json`].
//!
//! The crate depends only on `evs-telemetry`, so every protocol crate —
//! including `evs-core`'s checker — can use it without a cycle. The
//! [`json`] module is the workspace's one JSON reader, shared by the span
//! round-trip and by `evs-bench`'s baseline regression gate. The [`dump`]
//! module serializes per-process flight dumps to JSON files and loads
//! them back, so a multi-OS-process run (`examples/udp_cluster.rs`) can
//! be analyzed long after its processes exited.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod dump;
pub mod json;
pub mod report;
pub mod spans;
pub mod timeline;

pub use anomaly::{Anomaly, AnomalyConfig, ANOMALY_KINDS};
pub use dump::{dump_from_json, dump_to_json, load_dumps, write_dumps};
pub use report::{InspectReport, SpanReport};
pub use spans::{step_name, ConfigSpan, MessageSpan, StepSpan};
pub use timeline::{collect_dumps, Timeline, TimelineEntry};
