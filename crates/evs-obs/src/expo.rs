//! The text exposition format: one process's telemetry as a
//! line-oriented snapshot that survives a UDP datagram and round-trips
//! through [`Exposition::parse`].
//!
//! Format (one record per line, space-separated):
//!
//! ```text
//! EVSOBS 1
//! pid 2
//! seq 17
//! info config R3@P0
//! info role daemon
//! counter token_rotations 4211
//! gauge obligation_set_size 0
//! hist wal_sync_ns 130 5561000 92000 31000 61000 92000
//! phase park 181000000 905123
//! end
//! ```
//!
//! `hist` fields are `count sum max p50 p90 p99`; `phase` fields are
//! total attributed nanoseconds and the phase's fraction of all
//! attributed time in parts-per-million. Fractions are integers so the
//! text round-trips exactly — no float formatting instability — and the
//! ppm values sum to 1e6 (minus at most one truncated ppm per phase).
//! The `end` trailer guards against datagram truncation: a parse
//! without it fails.

use evs_telemetry::{names, Phase, ProcessReport, Telemetry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// First line of every exposition: magic + format version.
pub const EXPO_HEADER: &str = "EVSOBS 1";

/// Summary statistics of one log-bucketed histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistStat {
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
}

/// One live-loop phase's share of wall-clock time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Total nanoseconds attributed to the phase.
    pub ns: u64,
    /// The phase's fraction of all attributed time, in parts per
    /// million (so 905123 ≈ 90.5%).
    pub ppm: u64,
}

/// A parsed (or to-be-rendered) exposition snapshot of one process.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Exposition {
    /// The process's telemetry pid.
    pub pid: u32,
    /// Monotonic snapshot sequence number; resets when the process
    /// respawns, which is how `evs-top` detects a new incarnation.
    pub seq: u64,
    /// Free-form info keys (role, config, os_pid, members, …). Keys are
    /// single tokens; values may contain spaces but not newlines.
    pub info: BTreeMap<String, String>,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Log-histogram summaries by name.
    pub hists: BTreeMap<String, HistStat>,
    /// Phase-time attribution by phase name.
    pub phases: BTreeMap<String, PhaseStat>,
}

impl Exposition {
    /// Builds a snapshot of `telemetry` with the given sequence number
    /// and extra info keys. Returns `None` on a detached handle.
    ///
    /// Phase entries are derived from the `phase_ns_*` counters written
    /// by a `PhaseClock`; processes without one simply expose no
    /// `phase` lines.
    pub fn from_telemetry(
        seq: u64,
        telemetry: &Telemetry,
        info: impl IntoIterator<Item = (String, String)>,
    ) -> Option<Exposition> {
        let report = telemetry.snapshot()?;
        Some(Exposition::from_report(seq, &report, info))
    }

    /// Builds a snapshot from an already-taken [`ProcessReport`].
    pub fn from_report(
        seq: u64,
        report: &ProcessReport,
        info: impl IntoIterator<Item = (String, String)>,
    ) -> Exposition {
        let mut phases = BTreeMap::new();
        let total: u64 = Phase::ALL
            .iter()
            .filter_map(|p| report.counters.get(p.counter_name()))
            .sum();
        for p in Phase::ALL {
            let ns = report.counters.get(p.counter_name()).copied().unwrap_or(0);
            // checked_div: no phase clock ran → no phase lines at all.
            let Some(ppm) = ns.saturating_mul(1_000_000).checked_div(total) else {
                break;
            };
            phases.insert(p.name().to_string(), PhaseStat { ns, ppm });
        }
        Exposition {
            pid: report.pid,
            seq,
            info: info
                .into_iter()
                .map(|(k, v)| {
                    (
                        k.split_whitespace().collect::<Vec<_>>().join("_"),
                        v.replace(['\n', '\r'], " "),
                    )
                })
                .collect(),
            counters: report.counters.clone(),
            gauges: report.gauges.clone(),
            hists: report
                .log_histograms
                .iter()
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistStat {
                            count: h.count,
                            sum: h.sum,
                            max: h.max,
                            p50: h.percentile(0.5),
                            p90: h.percentile(0.9),
                            p99: h.percentile(0.99),
                        },
                    )
                })
                .collect(),
            phases,
        }
    }

    /// Total nanoseconds attributed across all phases.
    pub fn phase_total_ns(&self) -> u64 {
        self.phases.values().map(|p| p.ns).sum()
    }

    /// The loop wall-clock gauge set at the last phase mark, if any.
    pub fn loop_ns(&self) -> Option<u64> {
        self.gauges
            .get(names::PHASE_LOOP_NS)
            .map(|&v| v.max(0) as u64)
    }

    /// Fraction of loop wall-clock covered by phase attribution
    /// (0.0–~1.0; `None` without a phase clock). The chained-mark design
    /// makes this ≈1.0 by construction — a shortfall means marks are
    /// missing from some loop path.
    pub fn coverage(&self) -> Option<f64> {
        let loop_ns = self.loop_ns()?;
        if loop_ns == 0 {
            return None;
        }
        Some(self.phase_total_ns() as f64 / loop_ns as f64)
    }

    /// Renders the exposition text (see module docs for the grammar).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str(EXPO_HEADER);
        out.push('\n');
        let _ = writeln!(out, "pid {}", self.pid);
        let _ = writeln!(out, "seq {}", self.seq);
        for (k, v) in &self.info {
            let _ = writeln!(out, "info {k} {v}");
        }
        for (k, v) in &self.counters {
            let _ = writeln!(out, "counter {k} {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "gauge {k} {v}");
        }
        for (k, h) in &self.hists {
            let _ = writeln!(
                out,
                "hist {k} {} {} {} {} {} {}",
                h.count, h.sum, h.max, h.p50, h.p90, h.p99
            );
        }
        for (k, p) in &self.phases {
            let _ = writeln!(out, "phase {k} {} {}", p.ns, p.ppm);
        }
        out.push_str("end\n");
        out
    }

    /// Parses exposition text back into a structured snapshot.
    ///
    /// Unknown line kinds are rejected (they indicate version skew, and
    /// the version is in the header for exactly that reason). A missing
    /// `end` trailer means the datagram was truncated.
    pub fn parse(text: &str) -> Result<Exposition, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(EXPO_HEADER) => {}
            Some(other) => return Err(format!("bad exposition header: {other:?}")),
            None => return Err("empty exposition".to_string()),
        }
        let mut expo = Exposition::default();
        let mut ended = false;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if ended {
                return Err(format!("trailing line after end: {line:?}"));
            }
            let mut parts = line.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            match kind {
                "end" => ended = true,
                "pid" => expo.pid = field(parts.next(), line)?,
                "seq" => expo.seq = field(parts.next(), line)?,
                "info" => {
                    let key = parts.next().ok_or_else(|| bad(line))?;
                    let value = parts.next().unwrap_or("");
                    expo.info.insert(key.to_string(), value.to_string());
                }
                "counter" => {
                    let key = parts.next().ok_or_else(|| bad(line))?;
                    expo.counters
                        .insert(key.to_string(), field(parts.next(), line)?);
                }
                "gauge" => {
                    let key = parts.next().ok_or_else(|| bad(line))?;
                    expo.gauges
                        .insert(key.to_string(), field(parts.next(), line)?);
                }
                "hist" => {
                    let key = parts.next().ok_or_else(|| bad(line))?;
                    let rest = parts.next().ok_or_else(|| bad(line))?;
                    let mut f = rest.split(' ').map(str::parse::<u64>);
                    let mut next = || -> Result<u64, String> {
                        f.next().ok_or_else(|| bad(line))?.map_err(|_| bad(line))
                    };
                    expo.hists.insert(
                        key.to_string(),
                        HistStat {
                            count: next()?,
                            sum: next()?,
                            max: next()?,
                            p50: next()?,
                            p90: next()?,
                            p99: next()?,
                        },
                    );
                }
                "phase" => {
                    let key = parts.next().ok_or_else(|| bad(line))?;
                    let rest = parts.next().ok_or_else(|| bad(line))?;
                    let mut f = rest.split(' ').map(str::parse::<u64>);
                    let mut next = || -> Result<u64, String> {
                        f.next().ok_or_else(|| bad(line))?.map_err(|_| bad(line))
                    };
                    expo.phases.insert(
                        key.to_string(),
                        PhaseStat {
                            ns: next()?,
                            ppm: next()?,
                        },
                    );
                }
                _ => return Err(format!("unknown exposition line: {line:?}")),
            }
        }
        if !ended {
            return Err("truncated exposition: missing end trailer".to_string());
        }
        Ok(expo)
    }
}

fn bad(line: &str) -> String {
    format!("malformed exposition line: {line:?}")
}

fn field<T: std::str::FromStr>(part: Option<&str>, line: &str) -> Result<T, String> {
    part.ok_or_else(|| bad(line))?
        .parse()
        .map_err(|_| bad(line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use evs_telemetry::PhaseClock;

    #[test]
    fn exposition_round_trips() {
        let t = Telemetry::enabled(4);
        t.counter(names::TOKEN_ROTATIONS).add(17);
        t.gauge(names::OBLIGATION_SET_SIZE).set(-2);
        t.log_histogram(names::WAL_SYNC_NS).observe(31_000);
        t.log_histogram(names::WAL_SYNC_NS).observe(92_000);
        let mut clock = PhaseClock::new(&t);
        clock.mark(Phase::Park);
        clock.mark(Phase::Dispatch);
        let expo = Exposition::from_telemetry(
            9,
            &t,
            [
                ("config".to_string(), "R3@P0".to_string()),
                ("members".to_string(), "P0 P1 P2".to_string()),
            ],
        )
        .unwrap();
        let text = expo.to_text();
        let parsed = Exposition::parse(&text).unwrap();
        assert_eq!(parsed, expo);
        assert_eq!(parsed.pid, 4);
        assert_eq!(parsed.seq, 9);
        assert_eq!(parsed.info["members"], "P0 P1 P2");
        assert_eq!(parsed.counters[names::TOKEN_ROTATIONS], 17);
        assert_eq!(parsed.gauges[names::OBLIGATION_SET_SIZE], -2);
        assert_eq!(parsed.hists[names::WAL_SYNC_NS].count, 2);
        assert_eq!(parsed.hists[names::WAL_SYNC_NS].max, 92_000);
    }

    #[test]
    fn phase_ppms_sum_to_about_one_million() {
        let t = Telemetry::enabled(0);
        let mut clock = PhaseClock::new(&t);
        for _ in 0..20 {
            std::thread::sleep(std::time::Duration::from_micros(20));
            clock.mark(Phase::Park);
            clock.mark(Phase::Recv);
            clock.mark(Phase::Send);
        }
        let expo = Exposition::from_telemetry(1, &t, []).unwrap();
        let ppm_sum: u64 = expo.phases.values().map(|p| p.ppm).sum();
        // Integer truncation loses at most 1 ppm per phase.
        assert!(ppm_sum > 1_000_000 - Phase::COUNT as u64);
        assert!(ppm_sum <= 1_000_000);
        // Chained marks attribute all loop time → coverage ≈ 1.
        let cov = expo.coverage().unwrap();
        assert!(cov > 0.99 && cov < 1.01, "coverage {cov}");
    }

    #[test]
    fn detached_telemetry_yields_none() {
        assert!(Exposition::from_telemetry(0, &Telemetry::disabled(), []).is_none());
    }

    #[test]
    fn parse_rejects_truncation_and_skew() {
        let t = Telemetry::enabled(0);
        t.counter(names::MESSAGES_SENT).add(1);
        let text = Exposition::from_telemetry(3, &t, []).unwrap().to_text();
        let truncated = text.strip_suffix("end\n").unwrap();
        assert!(Exposition::parse(truncated)
            .unwrap_err()
            .contains("truncated"));
        assert!(Exposition::parse("NOPE 9\nend\n")
            .unwrap_err()
            .contains("header"));
        assert!(Exposition::parse(&format!("{EXPO_HEADER}\nwat 1\nend\n"))
            .unwrap_err()
            .contains("unknown"));
        assert!(Exposition::parse(&format!("{EXPO_HEADER}\ncounter x notanum\nend\n")).is_err());
    }

    #[test]
    fn info_keys_and_values_are_sanitized() {
        let t = Telemetry::enabled(0);
        let expo = Exposition::from_telemetry(
            0,
            &t,
            [("two words".to_string(), "line\nbreak".to_string())],
        )
        .unwrap();
        let parsed = Exposition::parse(&expo.to_text()).unwrap();
        assert_eq!(parsed.info["two_words"], "line break");
    }
}
