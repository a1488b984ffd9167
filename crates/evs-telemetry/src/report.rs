//! Run reports: aggregated metric snapshots across all processes of a
//! run, rendered as human-readable text or JSON.
//!
//! The JSON emitter is hand-rolled over `std::fmt` — this crate is
//! deliberately dependency-free, and [`push_json_string`] is the one
//! string escaper every other emitter in the workspace calls. The
//! emitted document is plain, stable JSON: object keys are sorted
//! (`BTreeMap` iteration order) and all values are integers or strings.

use crate::metrics::LogHistogramSnapshot;
use crate::Telemetry;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One process's metric snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcessReport {
    /// The process identifier.
    pub pid: u32,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Log-bucketed histogram snapshots by name.
    pub log_histograms: BTreeMap<String, LogHistogramSnapshot>,
}

/// Aggregated snapshot of a whole run: one [`ProcessReport`] per process
/// with an attached telemetry registry, plus cross-process totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Per-process snapshots, in process order. Detached handles are
    /// skipped (a run with telemetry disabled yields an empty report).
    pub processes: Vec<ProcessReport>,
}

impl RunReport {
    /// Snapshots every enabled handle.
    pub fn collect<'a>(handles: impl IntoIterator<Item = &'a Telemetry>) -> RunReport {
        RunReport {
            processes: handles
                .into_iter()
                .filter_map(Telemetry::snapshot)
                .collect(),
        }
    }

    /// True if no process contributed a snapshot.
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Sums each counter across all processes.
    pub fn counter_totals(&self) -> BTreeMap<String, u64> {
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for p in &self.processes {
            for (name, v) in &p.counters {
                *totals.entry(name.clone()).or_insert(0) += v;
            }
        }
        totals
    }

    /// The summed value of one counter across all processes.
    pub fn total(&self, counter: &str) -> u64 {
        self.processes
            .iter()
            .filter_map(|p| p.counters.get(counter))
            .sum()
    }

    /// Renders the human-readable report.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("run report: telemetry detached (no data)\n");
            return out;
        }
        let _ = writeln!(out, "run report ({} process(es))", self.processes.len());
        let _ = writeln!(out, "  totals:");
        for (name, v) in self.counter_totals() {
            let _ = writeln!(out, "    {name:<32} {v}");
        }
        for p in &self.processes {
            let _ = writeln!(out, "  P{}:", p.pid);
            for (name, v) in &p.counters {
                let _ = writeln!(out, "    {name:<32} {v}");
            }
            for (name, v) in &p.gauges {
                let _ = writeln!(out, "    {name:<32} {v} (gauge)");
            }
            for (name, h) in &p.log_histograms {
                let _ = writeln!(
                    out,
                    "    {name:<32} n={} sum={} mean={:.2} p50={} p99={} max={}",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.percentile(0.5),
                    h.percentile(0.99),
                    h.max,
                );
            }
        }
        out
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"processes\":[");
        for (i, p) in self.processes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"pid\":{},\"counters\":{{", p.pid);
            push_u64_map(&mut out, &p.counters);
            out.push_str("},\"gauges\":{");
            push_i64_map(&mut out, &p.gauges);
            // Log histograms are summarized (count/sum/max + quantiles)
            // rather than dumped bucket-by-bucket: 496 buckets per
            // instrument would swamp the document, and the consumers
            // (bench gate, inspect) key on the summary statistics.
            out.push_str("},\"log_histograms\":{");
            for (j, (name, h)) in p.log_histograms.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_string(&mut out, name);
                let _ = write!(
                    out,
                    ":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                    h.count,
                    h.sum,
                    h.max,
                    h.percentile(0.5),
                    h.percentile(0.9),
                    h.percentile(0.99)
                );
            }
            out.push_str("}}");
        }
        out.push_str("],\"totals\":{");
        push_u64_map(&mut out, &self.counter_totals());
        out.push_str("}}");
        out
    }
}

fn push_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        let _ = write!(out, ":{v}");
    }
}

fn push_i64_map(out: &mut String, map: &BTreeMap<String, i64>) {
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(out, k);
        let _ = write!(out, ":{v}");
    }
}

/// Appends `s` as a JSON string literal (quotes, escapes applied).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let a = Telemetry::enabled(0);
        a.counter("messages_sent").add(3);
        a.counter("token_rotations").add(10);
        a.gauge("obligation_set_size").set(2);
        a.log_histogram("stamped_per_visit").observe(2);
        let b = Telemetry::enabled(1);
        b.counter("messages_sent").add(4);
        RunReport::collect([&a, &b])
    }

    #[test]
    fn totals_sum_across_processes() {
        let r = sample();
        assert_eq!(r.total("messages_sent"), 7);
        assert_eq!(r.counter_totals()["token_rotations"], 10);
        assert_eq!(r.total("absent"), 0);
    }

    #[test]
    fn text_report_mentions_every_instrument() {
        let text = sample().to_text();
        assert!(text.contains("run report (2 process(es))"));
        assert!(text.contains("messages_sent"));
        assert!(text.contains("obligation_set_size"));
        assert!(text.contains("stamped_per_visit"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let json = sample().to_json();
        assert!(json.starts_with("{\"processes\":["));
        assert!(json.contains("\"pid\":0"));
        assert!(json.contains("\"messages_sent\":3"));
        assert!(json.contains("\"totals\":{"));
        assert!(json.contains("\"messages_sent\":7"));
        // Balanced braces/brackets (cheap well-formedness check; no JSON
        // parser in a dependency-free crate).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn detached_handles_yield_empty_report() {
        let det = Telemetry::disabled();
        let r = RunReport::collect([&det]);
        assert!(r.is_empty());
        assert!(r.to_text().contains("telemetry detached"));
        assert_eq!(r.to_json(), "{\"processes\":[],\"totals\":{}}");
    }

    #[test]
    fn json_string_escaping() {
        let mut s = String::new();
        push_json_string(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
