//! The specification check with its post-mortem attached.
//!
//! `evs_core::checker` judges a [`Trace`]; this module runs the same check
//! and, on a violation, hands back everything needed to read it: the
//! trace, the flight-recorder dumps of every telemetry-enabled process,
//! and their [`InspectReport`] rendering.

use crate::report::InspectReport;
use crate::timeline::collect_dumps;
use evs_core::checker::{check_all, Violation};
use evs_core::Trace;
use evs_telemetry::{RecordedEvent, Telemetry};
use std::fmt;

/// A failed specification check together with the trace it judged and the
/// flight-recorder dumps of every telemetry-enabled process — the last
/// events each process recorded before the violation was detected.
///
/// Produced by [`check_all_with_telemetry`]; its [`Display`](fmt::Display)
/// rendering prints the violations first and then one `process N` section
/// per dump followed by the [`InspectReport`] of the trace and dumps, each
/// timeline event on a `[t=..] ..` line, so a panicking test shows the
/// recent protocol history alongside the broken specification.
#[derive(Clone, Debug)]
pub struct CheckFailure {
    /// Every specification violation found in the trace.
    pub violations: Vec<Violation>,
    /// Per-process flight-recorder contents, `(pid, last-K events)`,
    /// oldest first. Only telemetry-enabled processes appear.
    pub dumps: Vec<(u32, Vec<RecordedEvent>)>,
    /// The trace the violations were found in.
    pub trace: Trace,
}

/// How much of the merged timeline, and of each span section, a failure
/// report prints. Flight recorders are bounded per process but a
/// multi-process merge can still run long, and the span sections cover
/// the whole trace.
const FAILURE_REPORT_CAP: usize = 160;

impl CheckFailure {
    /// The full `evs-inspect` analysis of the trace and the attached
    /// dumps: merged causal timeline, per-message and per-configuration
    /// lifecycle spans, anomaly detection.
    pub fn inspect(&self) -> InspectReport {
        InspectReport::analyze(&self.trace, &self.dumps)
    }
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        if self.dumps.is_empty() {
            write!(f, "no flight-recorder dumps (telemetry detached)")?;
        } else {
            writeln!(f, "flight recorder (merged across processes):")?;
            for (pid, events) in &self.dumps {
                writeln!(f, "  process {pid}: {} event(s) recorded", events.len())?;
            }
            let report = self.inspect();
            for line in report.to_text(Some(FAILURE_REPORT_CAP)).lines() {
                writeln!(f, "  {line}")?;
            }
        }
        Ok(())
    }
}

/// Like [`check_all`], but on violation attaches the trace and the
/// flight-recorder dump of every telemetry-enabled process in `handles`,
/// giving the failure report the recent protocol history that led up to
/// it.
///
/// Detached handles contribute no dump; passing an empty iterator makes
/// this equivalent to [`check_all`] with the violations wrapped in a
/// [`CheckFailure`].
///
/// # Errors
///
/// Returns a [`CheckFailure`] if the trace breaks any specification of the
/// extended virtual synchrony model.
pub fn check_all_with_telemetry<'h>(
    trace: &Trace,
    handles: impl IntoIterator<Item = &'h Telemetry>,
) -> Result<(), CheckFailure> {
    check_all(trace).map_err(|violations| CheckFailure {
        violations,
        dumps: collect_dumps(handles),
        trace: trace.clone(),
    })
}

/// Like `evs_core::checker::assert_evs`, but the panic message includes
/// the flight-recorder dumps and analysis from
/// [`check_all_with_telemetry`] — convenient in telemetry-enabled tests.
///
/// # Panics
///
/// Panics if the trace violates the model.
pub fn assert_evs_with_telemetry<'h>(
    trace: &Trace,
    handles: impl IntoIterator<Item = &'h Telemetry>,
) {
    if let Err(failure) = check_all_with_telemetry(trace, handles) {
        panic!("extended virtual synchrony violated:\n{failure}\ntrace:\n{trace}");
    }
}
