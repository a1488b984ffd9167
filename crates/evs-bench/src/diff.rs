//! The bench-regression diff gate behind `./ci.sh bench-diff`.
//!
//! The [`crate::smoke`] scenarios are deterministic, so their counter
//! totals are exactly reproducible for unchanged code. This module writes
//! them as `BENCH_baseline.txt` — one telemetry [`Exposition`] per
//! scenario, concatenated, each named by its `info scenario` line — and
//! re-runs them to compare every counter (plus the simulated-time
//! figures) per scenario against the committed file, with per-counter
//! thresholds:
//!
//! * **Cost counters** (token rotations, retransmissions, hole requests,
//!   recovery entries, ...) gate one-sided: only an *increase* beyond the
//!   tolerance fails — getting cheaper is an improvement, not a
//!   regression.
//! * **Work counters** ([`two_sided`]: messages originated / sent /
//!   delivered, per-service delivery counts) gate two-sided: the load is
//!   fixed, so movement in *either* direction means the protocol changed
//!   what it does, not just how expensive it is. A drop in
//!   `messages_delivered` is lost deliveries, never a win.
//! * **Derived latency figures** (`agreed_ticks`, `safe_ticks` and the
//!   `latency_*_p50_ticks` / `latency_*_p99_ticks` percentiles) gate
//!   one-sided like cost counters: they are simulated ticks, exact per
//!   seed, and only getting slower is a regression.
//!
//! The tolerance is relative with an absolute floor, so tiny counters
//! aren't gated at ±0. A scenario the run has and the baseline lacks
//! fails too: an empty or truncated baseline compares nothing.
//! Intentional protocol changes shift the baseline instead:
//! `./ci.sh bench-smoke` regenerates it, and the diff shows up in review.

use crate::smoke;
use evs_telemetry::{Exposition, EXPO_HEADER};
use std::collections::BTreeMap;
use std::fmt;

/// Relative tolerance (fraction of the baseline value).
pub const RELATIVE_TOLERANCE: f64 = 0.2;
/// Absolute slack floor, so near-zero counters aren't gated at ±0.
pub const ABSOLUTE_TOLERANCE: u64 = 4;

/// The drift allowed for a metric whose baseline is `base`:
/// `max(ABSOLUTE_TOLERANCE, RELATIVE_TOLERANCE × base)`.
pub fn slack(base: u64) -> u64 {
    let rel = (base as f64 * RELATIVE_TOLERANCE).round() as u64;
    rel.max(ABSOLUTE_TOLERANCE)
}

/// True for metrics gated two-sided (fixed-load work counters, where a
/// drop is as alarming as a rise); everything else gates one-sided upper.
pub fn two_sided(metric: &str) -> bool {
    matches!(
        metric,
        "messages_originated"
            | "messages_sent"
            | "messages_delivered"
            | "delivered_agreed"
            | "delivered_causal"
            | "delivered_safe"
    )
}

/// One metric that moved outside its allowance.
#[derive(Clone, Debug)]
pub struct Regression {
    /// Scenario key, e.g. `bench_smoke/n3`.
    pub scenario: String,
    /// Metric name (a counter total or a tick figure), or `<scenario>`
    /// for a whole scenario missing from one side.
    pub metric: String,
    /// Value recorded in the committed baseline (`None`: the scenario is
    /// not in the baseline).
    pub baseline: Option<u64>,
    /// Value measured by this run (`None`: metric disappeared).
    pub current: Option<u64>,
    /// The drift this comparison allowed.
    pub allowed: u64,
}

impl fmt::Display for Regression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: ", self.scenario, self.metric)?;
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => {
                let dir = if c > b { "rose" } else { "fell" };
                write!(f, "{dir} {b} -> {c} (allowed drift {})", self.allowed)
            }
            (Some(b), None) => write!(f, "baseline {b} but missing from this run"),
            (None, _) => write!(f, "missing from the baseline"),
        }
    }
}

/// The outcome of one baseline-vs-current comparison.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Metrics compared within matched scenarios.
    pub compared: usize,
    /// Everything that moved outside its allowance.
    pub regressions: Vec<Regression>,
    /// Non-gating observations (metrics new in this run).
    pub notes: Vec<String>,
}

impl DiffReport {
    /// True when no metric regressed.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable summary, one line per regression and note.
    pub fn to_text(&self) -> String {
        let mut out = format!("bench-diff: {} metric(s) compared\n", self.compared);
        for r in &self.regressions {
            out.push_str(&format!("  REGRESSION {r}\n"));
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        if self.is_clean() {
            out.push_str("  all metrics within tolerance\n");
        }
        out
    }
}

/// Per-scenario metric maps, keyed by [`smoke::Scenario::key`]-style keys.
pub type MetricMap = BTreeMap<String, BTreeMap<String, u64>>;

/// The comparable metrics of one freshly-run smoke scenario: its counter
/// totals plus the two tick figures.
pub fn current_metrics(s: &smoke::Scenario) -> BTreeMap<String, u64> {
    let mut metrics = s.totals.clone();
    metrics.insert("agreed_ticks".to_string(), s.agreed_ticks);
    metrics.insert("safe_ticks".to_string(), s.safe_ticks);
    metrics
}

/// Renders the scenarios as the baseline file: per scenario one
/// exposition whose `info scenario` line is its key and whose counters
/// are its [`current_metrics`].
pub fn baseline_text(scenarios: &[smoke::Scenario]) -> String {
    let mut out = String::new();
    for s in scenarios {
        let expo = Exposition {
            info: [("scenario".to_string(), s.key())].into(),
            counters: current_metrics(s),
            ..Exposition::default()
        };
        out.push_str(&expo.to_text());
    }
    out
}

/// Why the baseline file did not parse, and on which line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineError {
    /// The offending line of the whole file, 1-based.
    pub line: usize,
    /// What was wrong with it.
    pub what: String,
}

impl fmt::Display for BaselineError {
    /// `<line>: <what>`, to follow the file name.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.line, self.what)
    }
}

/// Parses the baseline file into per-scenario metric maps: it splits the
/// text at each exposition header and reads each part with
/// [`Exposition::parse`].
///
/// # Errors
///
/// Fails on the first part that is not a canonical exposition, that lacks
/// an `info scenario` line, or whose scenario an earlier part named.
pub fn parse_baseline(text: &str) -> Result<MetricMap, BaselineError> {
    let mut out = MetricMap::new();
    let mut first = 1;
    for part in split_at_headers(text) {
        let expo = Exposition::parse(part).map_err(|e| BaselineError {
            line: first + e.line - 1,
            what: e.what.to_string(),
        })?;
        let fail = |what| BaselineError { line: first, what };
        let key = expo
            .info
            .get("scenario")
            .ok_or_else(|| fail("exposition has no `info scenario` line".to_string()))?;
        if out.contains_key(key) {
            return Err(fail(format!("a second scenario {key}")));
        }
        out.insert(key.clone(), expo.counters);
        first += part.lines().count();
    }
    Ok(out)
}

/// `text` cut before every header line but the first (one part for an
/// empty text, which then fails to parse).
fn split_at_headers(text: &str) -> Vec<&str> {
    let mut cuts = vec![0];
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if at > 0 && line.strip_suffix('\n').unwrap_or(line) == EXPO_HEADER {
            cuts.push(at);
        }
        at += line.len();
    }
    cuts.push(text.len());
    cuts.windows(2).map(|w| &text[w[0]..w[1]]).collect()
}

/// Compares a parsed baseline against freshly-run scenarios. A scenario
/// on one side only is a regression.
pub fn compare(baseline: &MetricMap, current: &[smoke::Scenario]) -> DiffReport {
    let mut report = DiffReport::default();
    let mut seen = Vec::new();
    for s in current {
        let key = s.key();
        seen.push(key.clone());
        let Some(base) = baseline.get(&key) else {
            report.regressions.push(Regression {
                scenario: key,
                metric: "<scenario>".to_string(),
                baseline: None,
                current: None,
                allowed: 0,
            });
            continue;
        };
        let cur = current_metrics(s);
        for (metric, &b) in base {
            report.compared += 1;
            let allowed = slack(b);
            match cur.get(metric) {
                None => report.regressions.push(Regression {
                    scenario: key.clone(),
                    metric: metric.clone(),
                    baseline: Some(b),
                    current: None,
                    allowed,
                }),
                Some(&c) => {
                    let over = c > b + allowed;
                    let under = two_sided(metric) && c + allowed < b;
                    if over || under {
                        report.regressions.push(Regression {
                            scenario: key.clone(),
                            metric: metric.clone(),
                            baseline: Some(b),
                            current: Some(c),
                            allowed,
                        });
                    }
                }
            }
        }
        for metric in cur.keys() {
            if !base.contains_key(metric) {
                report
                    .notes
                    .push(format!("{key}: {metric} is new (no baseline value)"));
            }
        }
    }
    for key in baseline.keys() {
        if !seen.contains(key) {
            report.regressions.push(Regression {
                scenario: key.clone(),
                metric: "<scenario>".to_string(),
                baseline: Some(0),
                current: None,
                allowed: 0,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(label: &'static str, totals: &[(&str, u64)], ticks: (u64, u64)) -> smoke::Scenario {
        smoke::Scenario {
            n: if label.is_empty() { 3 } else { 5 },
            label,
            agreed_ticks: ticks.0,
            safe_ticks: ticks.1,
            totals: totals.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn scenario(sent: u64, rotations: u64, holes: u64) -> smoke::Scenario {
        let totals = [
            ("messages_sent", sent),
            ("token_rotations", rotations),
            ("holes_requested", holes),
        ];
        run("", &totals, (30, 50))
    }

    fn baseline() -> MetricMap {
        parse_baseline(&baseline_text(&[scenario(128, 1000, 5)])).unwrap()
    }

    #[test]
    fn unchanged_run_is_clean_and_improvements_pass() {
        let base = baseline();
        assert!(compare(&base, &[scenario(128, 1000, 5)]).is_clean());
        // Cost counters gate one-sided: a cheaper run is clean.
        assert!(compare(&base, &[scenario(128, 500, 0)]).is_clean());
    }

    #[test]
    fn cost_regression_and_work_drop_both_fail() {
        let base = baseline();
        // token_rotations +50% is far outside the 20% allowance.
        let r = compare(&base, &[scenario(128, 1500, 5)]);
        assert_eq!(r.regressions.len(), 1, "{}", r.to_text());
        assert_eq!(r.regressions[0].metric, "token_rotations");
        // messages_sent is two-sided: losing half the sends also fails.
        let r = compare(&base, &[scenario(64, 1000, 5)]);
        assert_eq!(r.regressions.len(), 1, "{}", r.to_text());
        assert_eq!(r.regressions[0].metric, "messages_sent");
    }

    #[test]
    fn absolute_floor_spares_tiny_counters_and_missing_scenario_fails() {
        let base = baseline();
        // holes_requested 5 -> 8 is +60%, but within the absolute floor.
        assert!(compare(&base, &[scenario(128, 1000, 8)]).is_clean());
        let r = compare(&base, &[]);
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].metric, "<scenario>");
    }

    #[test]
    fn a_scenario_missing_from_the_baseline_fails() {
        // An empty or truncated baseline compares nothing: that is a
        // failure, not a clean run.
        let r = compare(&MetricMap::new(), &[scenario(128, 1000, 5)]);
        assert!(!r.is_clean(), "{}", r.to_text());
        assert_eq!(r.compared, 0);
        assert_eq!(r.regressions[0].scenario, "bench_smoke/n3");
        assert!(r.to_text().contains("missing from the baseline"));
    }

    #[test]
    fn the_baseline_text_reads_back_as_the_current_metrics() {
        let scenarios = [
            run(
                "",
                &[("token_rotations", 30), ("messages_sent", 128)],
                (21, 57),
            ),
            run("window4", &[("token_rotations", 90)], (40, 90)),
        ];
        let text = baseline_text(&scenarios);
        assert_eq!(text.matches(EXPO_HEADER).count(), 2);
        assert!(text.contains("info scenario bench_smoke/n5/window4\n"));
        let want: MetricMap = scenarios
            .iter()
            .map(|s| (s.key(), current_metrics(s)))
            .collect();
        assert_eq!(parse_baseline(&text), Ok(want));
    }

    #[test]
    fn a_malformed_baseline_names_its_line() {
        let scenarios = [scenario(128, 1000, 5), run("loss5", &[], (1, 2))];
        let text = baseline_text(&scenarios);
        // The first exposition has header, pid, seq, info and five
        // counters, then end: the second's `seq` is line 13.
        let second = "seq 0\ninfo scenario bench_smoke/n5";
        let broken = text.replace(second, "seq x\ninfo scenario bench_smoke/n5");
        let err = parse_baseline(&broken).unwrap_err();
        assert_eq!(err.line, 13, "{err}");
        assert_eq!(err.to_string(), "13: malformed exposition line");
        let unnamed = text.replace("info scenario bench_smoke/n5/loss5\n", "");
        assert_eq!(parse_baseline(&unnamed).unwrap_err().line, 11);
        // The second exposition has two counters: the repeat starts at 18.
        assert_eq!(
            parse_baseline(&format!("{text}{text}")).unwrap_err().line,
            18
        );
        assert_eq!(parse_baseline("").unwrap_err().line, 1);
    }

    #[test]
    fn labelled_scenarios_key_apart_from_their_base() {
        let both = [
            run("", &[("token_rotations", 30)], (21, 57)),
            run("window4", &[("token_rotations", 90)], (40, 90)),
        ];
        let base = parse_baseline(&baseline_text(&both)).unwrap();
        assert_eq!(
            base.keys().collect::<Vec<_>>(),
            ["bench_smoke/n3", "bench_smoke/n5/window4"]
        );
        assert_eq!(base["bench_smoke/n5/window4"]["safe_ticks"], 90);
        assert!(compare(&base, &both).is_clean());
        // Each scenario is held to its own line: the ablation's 90
        // rotations would be a regression against the base's 30.
        let swapped = [
            run("", &[("token_rotations", 90)], (21, 57)),
            run("window4", &[("token_rotations", 90)], (40, 90)),
        ];
        let r = compare(&base, &swapped);
        assert_eq!(r.regressions.len(), 1, "{}", r.to_text());
        assert_eq!(r.regressions[0].scenario, "bench_smoke/n3");
    }
}
