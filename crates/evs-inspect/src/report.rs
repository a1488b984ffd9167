//! The top-level analysis report: timeline + spans + anomalies.

use crate::anomaly::{self, Anomaly, AnomalyConfig};
use crate::spans::{ConfigSpan, MessageSpan};
use crate::timeline::{collect_dumps, Timeline};
use evs_core::Trace;
use evs_telemetry::{RecordedEvent, Telemetry};
use std::fmt::Write as _;

/// Everything `evs-inspect` derives from a run's trace and its
/// flight-recorder dumps.
#[derive(Clone, Debug, PartialEq)]
pub struct InspectReport {
    /// The merged causally-ordered timeline.
    pub timeline: Timeline,
    /// Per-message lifecycle spans.
    pub messages: Vec<MessageSpan>,
    /// Per-configuration-change lifecycle spans.
    pub configs: Vec<ConfigSpan>,
    /// Detected anomalies.
    pub anomalies: Vec<Anomaly>,
}

impl InspectReport {
    /// Analyzes a run's trace and its `(pid, dump)` pairs, taken at the
    /// same instant, with default anomaly thresholds.
    pub fn analyze(trace: &Trace, dumps: &[(u32, Vec<RecordedEvent>)]) -> InspectReport {
        InspectReport::analyze_with(trace, dumps, &AnomalyConfig::default())
    }

    /// Analyzes with explicit anomaly thresholds.
    pub fn analyze_with(
        trace: &Trace,
        dumps: &[(u32, Vec<RecordedEvent>)],
        cfg: &AnomalyConfig,
    ) -> InspectReport {
        let timeline = Timeline::merge(dumps);
        let messages = MessageSpan::derive(&timeline, trace);
        let configs = ConfigSpan::derive(&timeline, trace);
        let anomalies = anomaly::detect(&timeline, &messages, &configs, cfg);
        InspectReport {
            timeline,
            messages,
            configs,
            anomalies,
        }
    }

    /// Analyzes a run's trace and the flight recorders of its live
    /// telemetry handles (detached handles contribute nothing).
    pub fn from_handles<'a>(
        trace: &Trace,
        handles: impl IntoIterator<Item = &'a Telemetry>,
    ) -> InspectReport {
        InspectReport::analyze(trace, &collect_dumps(handles))
    }

    /// True when neither a dump nor the trace contributed anything.
    pub fn is_empty(&self) -> bool {
        self.timeline.entries.is_empty() && self.messages.is_empty() && self.configs.is_empty()
    }

    /// Full human-readable rendering. `cap` bounds the timeline and each
    /// span section to its last `cap` entries (`None` prints them all).
    pub fn to_text(&self, cap: Option<usize>) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("inspect: no trace events and no flight-recorder data\n");
            return out;
        }
        out.push_str(&self.timeline.to_text(cap));
        let _ = writeln!(out, "message lifecycle spans ({}):", self.messages.len());
        for m in tail(&mut out, &self.messages, cap) {
            let _ = writeln!(out, "  {}", m.to_text());
        }
        let _ = writeln!(out, "configuration-change spans ({}):", self.configs.len());
        for c in tail(&mut out, &self.configs, cap) {
            for line in c.to_text().lines() {
                let _ = writeln!(out, "  {line}");
            }
        }
        let _ = writeln!(out, "anomalies ({}):", self.anomalies.len());
        if self.anomalies.is_empty() {
            out.push_str("  (none)\n");
        }
        for a in &self.anomalies {
            let _ = writeln!(out, "  {a}");
        }
        out
    }
}

/// The last `cap` items of `items`, after writing an elision note for the
/// rest to `out` — the timeline's rule, applied to a span section.
fn tail<'a, T>(out: &mut String, items: &'a [T], cap: Option<usize>) -> &'a [T] {
    let skip = cap.map_or(0, |k| items.len().saturating_sub(k));
    if skip > 0 {
        let _ = writeln!(out, "  ... ({skip} earlier span(s) omitted)");
    }
    &items[skip..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs_core::trace_io::parse_trace;
    use evs_telemetry::TelemetryEvent;

    /// One safe message: originated on the timeline, sent and delivered
    /// in the trace.
    fn sample() -> (Trace, Vec<(u32, Vec<RecordedEvent>)>) {
        let t = Telemetry::enabled(0);
        t.record(
            1,
            TelemetryEvent::MessageOriginated {
                sender: 0,
                counter: 1,
                service: "safe",
            },
        );
        let trace = parse_trace("process 0\n  @3 send 0#1 R1.0 safe\n  @5 dlv 0#1 R1.0 safe 1\n")
            .expect("fixture trace parses");
        (trace, collect_dumps([&t]))
    }

    #[test]
    fn report_renders_all_sections() {
        let (trace, dumps) = sample();
        let rep = InspectReport::analyze(&trace, &dumps);
        let text = rep.to_text(None);
        assert!(text.contains("merged causal timeline"));
        assert!(text.contains("message lifecycle spans (1):"));
        assert!(text.contains("configuration-change spans"));
        assert!(text.contains("anomalies (0):"));
        assert!(text.contains("(none)"));
    }

    #[test]
    fn a_cap_bounds_each_span_section() {
        // Five messages, each sent and delivered, and three configurations.
        let mut text = String::from("process 0\n");
        for c in 1..=5 {
            text.push_str(&format!(
                "  @{c} send 0#{c} R1.0 agreed\n  @{c} dlv 0#{c} R1.0 agreed {c}\n"
            ));
        }
        for e in 1..=3 {
            text.push_str(&format!("  @{} conf R{e}.0 * 0\n", 10 + e));
        }
        let trace = parse_trace(&text).expect("fixture trace parses");
        let rep = InspectReport::analyze(&trace, &[]);
        assert_eq!((rep.messages.len(), rep.configs.len()), (5, 3));
        let capped = rep.to_text(Some(2));
        assert!(capped.contains("message lifecycle spans (5):"), "{capped}");
        assert!(
            capped.contains("... (3 earlier span(s) omitted)"),
            "{capped}"
        );
        assert!(
            capped.contains("... (1 earlier span(s) omitted)"),
            "{capped}"
        );
        // The last two of each section survive, the earlier ones do not.
        assert!(
            capped.contains("P0#5 ") && capped.contains("P0#4 "),
            "{capped}"
        );
        assert!(!capped.contains("P0#3 "), "{capped}");
        assert!(capped.contains("R3@P0 (1 members)"), "{capped}");
        assert!(!capped.contains("R1@P0 (1 members)"), "{capped}");
        let full = rep.to_text(None);
        assert!(!full.contains("omitted"), "{full}");
        assert!(full.contains("P0#1 "), "{full}");
    }

    #[test]
    fn empty_report_says_so() {
        let rep = InspectReport::analyze(&Trace::default(), &[]);
        assert!(rep.is_empty());
        assert!(rep.to_text(None).contains("no flight-recorder data"));
    }
}
