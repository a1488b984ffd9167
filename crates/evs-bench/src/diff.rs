//! The bench-regression diff gate behind `./ci.sh bench-diff`.
//!
//! The [`crate::smoke`] scenarios are deterministic, so their counter
//! totals are exactly reproducible for unchanged code. This module re-runs
//! them and compares every counter (plus the simulated-time figures) per
//! scenario against the committed `BENCH_baseline.json`, with per-counter
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
//! * **Derived latency figures** (`latency_*_p50_ticks` /
//!   `latency_*_p99_ticks`, merged into the totals by the smoke runner)
//!   gate one-sided like cost counters: they are simulated-tick
//!   percentiles, exact per seed, and only getting slower is a
//!   regression.
//!
//! The tolerance is relative with an absolute floor (so tiny counters
//! aren't gated at ±0), and can be widened per-run via the
//! `BENCH_DIFF_TOLERANCE` environment variable — a fraction, e.g. `0.5`
//! for ±50%. Intentional protocol changes shift the baseline instead:
//! `./ci.sh bench-smoke` regenerates it, and the diff shows up in review.

use crate::smoke;
use evs_inspect::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Default relative tolerance (fraction of the baseline value).
pub const DEFAULT_RELATIVE: f64 = 0.2;
/// Absolute slack floor, so near-zero counters aren't gated at ±0.
pub const DEFAULT_ABSOLUTE: u64 = 4;
/// Environment variable overriding the relative tolerance.
pub const TOLERANCE_ENV: &str = "BENCH_DIFF_TOLERANCE";

/// Per-metric drift allowance: `max(absolute, relative × baseline)`.
#[derive(Clone, Copy, Debug)]
pub struct Thresholds {
    /// Allowed drift as a fraction of the baseline value.
    pub relative: f64,
    /// Minimum allowed drift regardless of the baseline's magnitude.
    pub absolute: u64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            relative: DEFAULT_RELATIVE,
            absolute: DEFAULT_ABSOLUTE,
        }
    }
}

impl Thresholds {
    /// The defaults, with the relative tolerance overridden by the
    /// `BENCH_DIFF_TOLERANCE` environment variable when set.
    ///
    /// # Errors
    ///
    /// Fails when the variable is set but not a non-negative number.
    pub fn from_env() -> Result<Thresholds, String> {
        let mut t = Thresholds::default();
        if let Ok(raw) = std::env::var(TOLERANCE_ENV) {
            let parsed: f64 = raw
                .trim()
                .parse()
                .map_err(|_| format!("{TOLERANCE_ENV}={raw:?} is not a number"))?;
            if !parsed.is_finite() || parsed < 0.0 {
                return Err(format!(
                    "{TOLERANCE_ENV}={raw:?} must be a non-negative fraction"
                ));
            }
            t.relative = parsed;
        }
        Ok(t)
    }

    /// The allowed absolute drift for a metric whose baseline is `base`.
    pub fn slack(&self, base: u64) -> u64 {
        let rel = (base as f64 * self.relative).round() as u64;
        rel.max(self.absolute)
    }
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
    /// Metric name (a counter total, `agreed_ticks`, or `safe_ticks`).
    pub metric: String,
    /// Value recorded in the committed baseline (`None`: metric is new).
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
    /// Non-gating observations (new metrics, new scenarios).
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

/// Splits a full scenario name (`bench_smoke/n3/agreed_ticks30/...`) into
/// its stable key and the tick metrics embedded in the remaining segments.
fn split_scenario_name(name: &str) -> (String, Vec<(String, u64)>) {
    let mut key_parts = Vec::new();
    let mut metrics = Vec::new();
    for part in name.split('/') {
        let tick_metric = ["agreed_ticks", "safe_ticks"]
            .iter()
            .find_map(|m| part.strip_prefix(m).map(|rest| (*m, rest)));
        match tick_metric {
            Some((metric, rest)) if rest.parse::<u64>().is_ok() => {
                metrics.push((metric.to_string(), rest.parse().unwrap_or(0)));
            }
            _ => key_parts.push(part),
        }
    }
    (key_parts.join("/"), metrics)
}

/// Parses `BENCH_baseline.json` into per-scenario metric maps (counter
/// totals plus the tick figures embedded in each scenario name).
///
/// # Errors
///
/// Fails on malformed JSON or a shape other than the smoke baseline's
/// `[{"scenario": .., "totals": {..}, ..}, ..]`.
pub fn parse_baseline(text: &str) -> Result<MetricMap, String> {
    let value = json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let scenarios = value
        .as_array()
        .ok_or("baseline is not a JSON array of scenarios")?;
    let mut out = MetricMap::new();
    for entry in scenarios {
        let obj = entry.as_object().ok_or("scenario entry is not an object")?;
        let name = obj
            .get("scenario")
            .and_then(Value::as_str)
            .ok_or("scenario entry lacks a \"scenario\" name")?;
        let totals = obj
            .get("totals")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("scenario {name} lacks a \"totals\" object"))?;
        let (key, ticks) = split_scenario_name(name);
        let mut metrics: BTreeMap<String, u64> = ticks.into_iter().collect();
        for (counter, v) in totals {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("{name}: counter {counter} is not a u64"))?;
            metrics.insert(counter.clone(), v);
        }
        if out.insert(key.clone(), metrics).is_some() {
            return Err(format!("baseline has two scenarios with key {key}"));
        }
    }
    Ok(out)
}

/// The comparable metrics of one freshly-run smoke scenario.
pub fn current_metrics(s: &smoke::Scenario) -> BTreeMap<String, u64> {
    let mut metrics = s.totals.clone();
    metrics.insert("agreed_ticks".to_string(), s.agreed_ticks);
    metrics.insert("safe_ticks".to_string(), s.safe_ticks);
    metrics
}

/// Compares a parsed baseline against freshly-run scenarios.
pub fn compare(baseline: &MetricMap, current: &[smoke::Scenario], t: &Thresholds) -> DiffReport {
    let mut report = DiffReport::default();
    let mut seen = Vec::new();
    for s in current {
        let key = s.key();
        seen.push(key.clone());
        let Some(base) = baseline.get(&key) else {
            report
                .notes
                .push(format!("{key}: new scenario, not in the baseline"));
            continue;
        };
        let cur = current_metrics(s);
        for (metric, &b) in base {
            report.compared += 1;
            let allowed = t.slack(b);
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

    const BASELINE: &str = r#"[
        {"scenario":"bench_smoke/n3/agreed_ticks30/safe_ticks50",
         "totals":{"messages_sent":128,"token_rotations":1000,"holes_requested":5}}
    ]"#;

    fn scenario(sent: u64, rotations: u64, holes: u64) -> smoke::Scenario {
        let totals: BTreeMap<String, u64> = [
            ("messages_sent".to_string(), sent),
            ("token_rotations".to_string(), rotations),
            ("holes_requested".to_string(), holes),
        ]
        .into_iter()
        .collect();
        smoke::Scenario {
            n: 3,
            label: "",
            agreed_ticks: 30,
            safe_ticks: 50,
            totals,
            json: String::new(),
        }
    }

    #[test]
    fn unchanged_run_is_clean_and_improvements_pass() {
        let base = parse_baseline(BASELINE).unwrap();
        let t = Thresholds::default();
        assert!(compare(&base, &[scenario(128, 1000, 5)], &t).is_clean());
        // Cost counters gate one-sided: a cheaper run is clean.
        assert!(compare(&base, &[scenario(128, 500, 0)], &t).is_clean());
    }

    #[test]
    fn cost_regression_and_work_drop_both_fail() {
        let base = parse_baseline(BASELINE).unwrap();
        let t = Thresholds::default();
        // token_rotations +50% is far outside the 20% allowance.
        let r = compare(&base, &[scenario(128, 1500, 5)], &t);
        assert_eq!(r.regressions.len(), 1, "{}", r.to_text());
        assert_eq!(r.regressions[0].metric, "token_rotations");
        // messages_sent is two-sided: losing half the sends also fails.
        let r = compare(&base, &[scenario(64, 1000, 5)], &t);
        assert_eq!(r.regressions.len(), 1, "{}", r.to_text());
        assert_eq!(r.regressions[0].metric, "messages_sent");
    }

    #[test]
    fn absolute_floor_spares_tiny_counters_and_missing_scenario_fails() {
        let base = parse_baseline(BASELINE).unwrap();
        let t = Thresholds::default();
        // holes_requested 5 -> 8 is +60%, but within the absolute floor.
        assert!(compare(&base, &[scenario(128, 1000, 8)], &t).is_clean());
        let r = compare(&base, &[], &t);
        assert_eq!(r.regressions.len(), 1);
        assert_eq!(r.regressions[0].metric, "<scenario>");
    }

    #[test]
    fn scenario_names_split_into_key_and_tick_metrics() {
        let (key, ticks) = split_scenario_name("bench_smoke/n5/agreed_ticks22/safe_ticks85");
        assert_eq!(key, "bench_smoke/n5");
        assert_eq!(
            ticks,
            vec![
                ("agreed_ticks".to_string(), 22),
                ("safe_ticks".to_string(), 85)
            ]
        );
    }

    #[test]
    fn labelled_scenarios_key_apart_from_their_base() {
        let base = parse_baseline(
            r#"[
            {"scenario":"bench_smoke/n5/agreed_ticks21/safe_ticks57","totals":{"token_rotations":30}},
            {"scenario":"bench_smoke/n5/window4/agreed_ticks40/safe_ticks90","totals":{"token_rotations":90}}
        ]"#,
        )
        .unwrap();
        assert_eq!(
            base.keys().collect::<Vec<_>>(),
            ["bench_smoke/n5", "bench_smoke/n5/window4"]
        );
        assert_eq!(base["bench_smoke/n5/window4"]["safe_ticks"], 90);
        let run = |label, rotations, agreed_ticks, safe_ticks| smoke::Scenario {
            n: 5,
            label,
            agreed_ticks,
            safe_ticks,
            totals: [("token_rotations".to_string(), rotations)].into(),
            json: String::new(),
        };
        assert_eq!(run("window4", 90, 40, 90).key(), "bench_smoke/n5/window4");
        let t = Thresholds::default();
        let both = [run("", 30, 21, 57), run("window4", 90, 40, 90)];
        assert!(compare(&base, &both, &t).is_clean());
        // Each scenario is held to its own line: the ablation's 90
        // rotations would be a regression against the base's 30.
        let swapped = [run("", 90, 21, 57), run("window4", 90, 40, 90)];
        let r = compare(&base, &swapped, &t);
        assert_eq!(r.regressions.len(), 1, "{}", r.to_text());
        assert_eq!(r.regressions[0].scenario, "bench_smoke/n5");
    }
}
